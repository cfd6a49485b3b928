//===- tests/integration/WorkloadTest.cpp - Workload engine tests ----------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// Runs scaled-down versions of the synthetic benchmark profiles under both
// collectors and checks the structural expectations: the run completes, the
// checksum is collector-independent (the GC never corrupts computation),
// collections actually happen, and the per-profile generational character
// (who tenures, who dirties cards) matches the paper's characterization.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "workload/Program.h"
#include "workload/Runner.h"

using namespace gengc;
using namespace gengc::workload;

namespace {

/// Small scale so the whole suite stays fast.
constexpr double TestScale = 0.05;

RunOptions scaled(double Scale) {
  RunOptions Options;
  Options.Scale = Scale;
  return Options;
}

class ProfileRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileRunTest, RunsToCompletionUnderBothCollectors) {
  Profile P = profileByName(GetParam());
  P.AllocBytesPerThread = std::min<uint64_t>(P.AllocBytesPerThread,
                                             64ull << 20);
  RunResult Gen = runWorkload(P, makeConfig(CollectorChoice::Generational),
                              scaled(TestScale));
  RunResult Base = runWorkload(
      P, makeConfig(CollectorChoice::NonGenerational), scaled(TestScale));

  EXPECT_GT(Gen.AllocatedObjects, 0u);
  EXPECT_EQ(Gen.AllocatedObjects, Base.AllocatedObjects)
      << "allocation trace must not depend on the collector";
  EXPECT_EQ(Gen.Checksum, Base.Checksum)
      << "computation must not depend on the collector";
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileRunTest,
                         ::testing::Values("anagram", "mtrt", "compress",
                                           "db", "jess", "javac", "jack"),
                         [](const auto &Info) { return Info.param; });

TEST(WorkloadCharacter, AnagramTriggersManyCollections) {
  Profile P = profileByName("anagram");
  RunResult R = runWorkload(P, makeConfig(CollectorChoice::Generational),
                            scaled(0.3));
  EXPECT_GE(R.Gc.Cycles.size(), 3u)
      << "the collection-intensive profile must actually collect";
}

TEST(WorkloadCharacter, JessScansFarMoreOldObjectsThanAnagram) {
  double Scale = 0.4;
  RunResult Jess = runWorkload(profileByName("jess"),
                               makeConfig(CollectorChoice::Generational),
                               scaled(Scale));
  RunResult Anagram = runWorkload(profileByName("anagram"),
                                  makeConfig(CollectorChoice::Generational),
                                  scaled(Scale));
  double JessScan =
      Jess.Gc.mean(CycleKind::Partial, &CycleStats::OldObjectsScanned);
  double AnagramScan =
      Anagram.Gc.mean(CycleKind::Partial, &CycleStats::OldObjectsScanned);
  EXPECT_GT(JessScan, 10 * (AnagramScan + 1))
      << "jess's old-generation mutation must dominate anagram's";
}

TEST(WorkloadCharacter, MostYoungObjectsDieInAnagramPartials) {
  RunResult R = runWorkload(profileByName("anagram"),
                            makeConfig(CollectorChoice::Generational),
                            scaled(0.3));
  ASSERT_GT(R.Gc.count(CycleKind::Partial), 0u);
  EXPECT_GT(R.Gc.percentFreedPartialObjects(), 80.0);
}

TEST(WorkloadCharacter, MultiThreadedProfileRuns) {
  Profile P = profileByName("mtrt");
  P.Threads = 3;
  RunResult R = runWorkload(P, makeConfig(CollectorChoice::Generational),
                            scaled(TestScale));
  EXPECT_GT(R.AllocatedObjects, 0u);
}

TEST(WorkloadCharacter, CopiesAggregateAcrossAllCopies) {
  // Regression test: multi-copy runs used to return only copy 0's detailed
  // result.  The aggregate must carry every copy's counters and histogram
  // samples, so a 2-copy run reports ~2x the single-copy totals.
  Profile P = profileByName("mtrt");
  RunOptions One = scaled(0.02);
  One.Seed = P.Seed; // pin the seed so both shapes run the same streams
  RunOptions Two = One;
  Two.Copies = 2;
  RunResult Single =
      runWorkload(P, makeConfig(CollectorChoice::Generational), One);
  RunResult Pair =
      runWorkload(P, makeConfig(CollectorChoice::Generational), Two);

  EXPECT_GT(Pair.ElapsedSeconds, 0.0);
  // Copy 1 runs a shifted seed, so totals are close to but not exactly
  // double; well above 1.5x proves the second copy is in the aggregate.
  EXPECT_GT(Pair.AllocatedObjects, Single.AllocatedObjects * 3 / 2);
  EXPECT_GT(Pair.AllocatedBytes, Single.AllocatedBytes * 3 / 2);
  // Merged histograms: each copy records its own stall/pause samples.
  EXPECT_GE(Pair.Metrics.StallNanos.count(),
            Single.Metrics.StallNanos.count());
  // Cycle lists concatenate across copies.  Checked on synthetic copies of
  // one cycle each: whether a 0.02-scale run collects at all is timing.
  RunOptions TwoSynthetic;
  TwoSynthetic.Copies = 2;
  RunResult Concatenated = runRepeated(
      [](uint64_t) {
        RunResult R;
        R.Gc.Cycles.emplace_back();
        R.Gc.GcActiveNanos = 1000;
        return R;
      },
      /*BaseSeed=*/1, TwoSynthetic);
  EXPECT_EQ(Concatenated.Gc.Cycles.size(), 2u);
  EXPECT_EQ(Concatenated.Gc.GcActiveNanos, 2000u);
}

TEST(WorkloadCharacter, AgingConfigurationRuns) {
  Profile P = profileByName("jess");
  RuntimeConfig Config = makeConfig(CollectorChoice::Generational);
  Config.Collector.Aging = true;
  Config.Collector.OldestAge = 4;
  RunResult R = runWorkload(P, Config, scaled(TestScale));
  EXPECT_GT(R.AllocatedObjects, 0u);
}

TEST(WorkloadCharacter, DbKeepsALargeStableOldGeneration) {
  RunResult R = runWorkload(profileByName("db"),
                            makeConfig(CollectorChoice::Generational),
                            scaled(0.3));
  // The populated table survives partial collections: live bytes after any
  // partial stay well above the table's footprint floor (~4 MB).
  ASSERT_GT(R.Gc.count(CycleKind::Partial), 0u);
  EXPECT_GT(R.Gc.mean(CycleKind::Partial, &CycleStats::LiveBytesAfter),
            2.0 * 1024 * 1024);
}

} // namespace
