//===- tests/gc/DeterminismTest.cpp ----------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// Determinism is defined by the counts a collector reports.  A fixed-seed
// workload that only mutates between cycles is run under settings that
// must not change what the collector does: a second identical run, event
// tracing on, other prefetch depths, and GcThreads = 4 instead of 1.  Every
// per-cycle statistic that reflects *what the collector did* (trace, card
// scan, sweep, promotion counts) must match across them.  One engine runs
// at every lane count, so no frozen code path is the reference; the counts
// are.  The one allowance is DESIGN.md §9's shard-boundary double count at
// more than one lane, which may only inflate a few work counts.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <iterator>

#include "core/Runtime.h"
#include "support/Random.h"

using namespace gengc;

namespace {

RuntimeConfig deterministicConfig(CollectorChoice Choice, bool Aging,
                                  unsigned GcThreads) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 16ull << 20;
  Config.Heap.CardBytes = 16;
  Config.Choice = Choice;
  Config.Collector.GcThreads = GcThreads;
  Config.Collector.Aging = Aging;
  Config.Collector.OldestAge = 3;
  // The trigger must never fire on its own: cycles happen only where the
  // workload requests them, so both runs see identical request points.
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8ull << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

/// One deterministic workload: fixed-seed graph churn on a single mutator,
/// with collections requested at fixed operation counts.  The mutator does
/// not allocate while a cycle runs (collectSyncCooperating only polls), so
/// the object graph at each cycle is a pure function of the seed.
GcRunStats runWorkload(CollectorChoice Choice, bool Aging,
                       bool Tracing = false, int PrefetchDepth = -1,
                       unsigned GcThreads = 1) {
  RuntimeConfig Config = deterministicConfig(Choice, Aging, GcThreads);
  Config.Collector.Obs.Tracing = Tracing;
  if (PrefetchDepth >= 0)
    Config.Collector.PrefetchDepth = unsigned(PrefetchDepth);
  Runtime RT(Config);
  auto M = RT.attachMutator();
  Rng Rand(0xD37E12);
  constexpr unsigned Ring = 48;
  for (unsigned I = 0; I < Ring; ++I)
    M->pushRoot(NullRef);

  bool Partial = false;
  for (uint64_t Op = 0; Op < 30000; ++Op) {
    unsigned Slot = unsigned(Rand.nextBelow(Ring));
    switch (Rand.nextBelow(5)) {
    case 0:
    case 1: {
      ObjectRef Node = M->allocate(2, uint32_t(Rand.nextInRange(8, 64)));
      M->writeRef(Node, 0, M->root(Slot));
      M->setRoot(Slot, Node);
      break;
    }
    case 2:
      M->setRoot(Slot, NullRef);
      break;
    case 3: {
      ObjectRef A = M->root(Slot);
      if (A != NullRef)
        M->writeRef(A, 1, M->root(unsigned(Rand.nextBelow(Ring))));
      break;
    }
    case 4:
      break; // breathing room, keeps the op mix seed-stable
    }
    if (Op % 5000 == 4999) {
      RT.collector().collectSyncCooperating(
          Partial ? CycleRequest::Partial : CycleRequest::Full, *M);
      Partial = !Partial;
    }
  }
  M->popRoots(M->numRoots());
  return RT.gcStats();
}

struct DeterminismParam {
  CollectorChoice Choice;
  bool Aging;
  const char *Name;
};

// gtest writes a parameter without a PrintTo into the test name as its raw
// bytes, padding and pointers included, which change from build to build.
void PrintTo(const DeterminismParam &P, std::ostream *OS) { *OS << P.Name; }

class DeterminismTest : public ::testing::TestWithParam<DeterminismParam> {};

/// Every per-cycle statistic that reflects what the collector *did* must
/// match exactly between \p First and \p Second.
void expectIdenticalCollectionStats(const GcRunStats &First,
                                    const GcRunStats &Second) {
  ASSERT_EQ(First.Cycles.size(), Second.Cycles.size());
  ASSERT_EQ(First.Cycles.size(), 6u);
  for (size_t I = 0; I < First.Cycles.size(); ++I) {
    const CycleStats &A = First.Cycles[I];
    const CycleStats &B = Second.Cycles[I];
    SCOPED_TRACE("cycle " + std::to_string(I));
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.GcWorkers, 1u);
    EXPECT_EQ(A.ObjectsTraced, B.ObjectsTraced);
    EXPECT_EQ(A.BytesTraced, B.BytesTraced);
    EXPECT_EQ(A.YoungSurvivors, B.YoungSurvivors);
    EXPECT_EQ(A.YoungSurvivorBytes, B.YoungSurvivorBytes);
    EXPECT_EQ(A.DirtyCardsAtStart, B.DirtyCardsAtStart);
    EXPECT_EQ(A.OldObjectsScanned, B.OldObjectsScanned);
    EXPECT_EQ(A.CardScanAreaBytes, B.CardScanAreaBytes);
    EXPECT_EQ(A.CardsRemarked, B.CardsRemarked);
    EXPECT_EQ(A.SummaryChunksScanned, B.SummaryChunksScanned);
    EXPECT_EQ(A.CardsSkippedBySummary, B.CardsSkippedBySummary);
    EXPECT_EQ(A.ObjectsFreed, B.ObjectsFreed);
    EXPECT_EQ(A.BytesFreed, B.BytesFreed);
    EXPECT_EQ(A.LiveObjectsAfter, B.LiveObjectsAfter);
    EXPECT_EQ(A.LiveBytesAfter, B.LiveBytesAfter);
    EXPECT_EQ(A.LiveEstimateBytes, B.LiveEstimateBytes);
    EXPECT_EQ(A.TraceSteals, 0u);
    EXPECT_EQ(B.TraceSteals, 0u);
  }
}

/// Every per-cycle statistic that reflects what the collector did must
/// match between the one-lane run \p One and the four-lane run \p Four of
/// the same workload, except the counts DESIGN.md §9 lets more lanes
/// inflate.  \p SimplePromotion marks the generational collector without
/// aging, whose partial cycles re-gray the old objects the card scan finds.
void expectSameCountsAcrossLaneCounts(const GcRunStats &One,
                                      const GcRunStats &Four,
                                      bool SimplePromotion) {
  ASSERT_EQ(One.Cycles.size(), Four.Cycles.size());
  ASSERT_EQ(One.Cycles.size(), 6u);
  for (size_t I = 0; I < One.Cycles.size(); ++I) {
    const CycleStats &A = One.Cycles[I];
    const CycleStats &B = Four.Cycles[I];
    SCOPED_TRACE("cycle " + std::to_string(I));
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.GcWorkers, 1u);
    EXPECT_EQ(B.GcWorkers, 4u);
    // A lone lane moves no work through the shared segment list.
    EXPECT_EQ(A.TraceSteals, 0u);
    EXPECT_EQ(A.TraceOffloads, 0u);
    // At more than one lane, an object overlapping a card-scan shard
    // boundary can be scanned by two lanes (DESIGN.md §9).  That may only
    // add to the card-scan work counts.  In simple-promotion partial
    // cycles both lanes also re-gray the object, so two trace lanes can
    // trace it concurrently and count it twice.
    EXPECT_GE(B.OldObjectsScanned, A.OldObjectsScanned);
    EXPECT_GE(B.CardScanAreaBytes, A.CardScanAreaBytes);
    if (SimplePromotion && A.Kind == CycleKind::Partial) {
      EXPECT_GE(B.ObjectsTraced, A.ObjectsTraced);
      EXPECT_GE(B.BytesTraced, A.BytesTraced);
    } else {
      EXPECT_EQ(A.ObjectsTraced, B.ObjectsTraced);
      EXPECT_EQ(A.BytesTraced, B.BytesTraced);
    }
    EXPECT_EQ(A.YoungSurvivors, B.YoungSurvivors);
    EXPECT_EQ(A.YoungSurvivorBytes, B.YoungSurvivorBytes);
    EXPECT_EQ(A.DirtyCardsAtStart, B.DirtyCardsAtStart);
    EXPECT_EQ(A.CardsRemarked, B.CardsRemarked);
    EXPECT_EQ(A.SummaryChunksScanned, B.SummaryChunksScanned);
    EXPECT_EQ(A.CardsSkippedBySummary, B.CardsSkippedBySummary);
    EXPECT_EQ(A.ObjectsFreed, B.ObjectsFreed);
    EXPECT_EQ(A.BytesFreed, B.BytesFreed);
    EXPECT_EQ(A.LiveObjectsAfter, B.LiveObjectsAfter);
    EXPECT_EQ(A.LiveBytesAfter, B.LiveBytesAfter);
    EXPECT_EQ(A.LiveEstimateBytes, B.LiveEstimateBytes);
  }
}

/// The counts the golden table pins, in column order.
struct GoldenField {
  const char *Name;
  uint64_t CycleStats::*Field;
};
constexpr GoldenField GoldenFields[] = {
    {"AllocatedCards", &CycleStats::AllocatedCards},
    {"ObjectsTraced", &CycleStats::ObjectsTraced},
    {"BytesTraced", &CycleStats::BytesTraced},
    {"YoungSurvivors", &CycleStats::YoungSurvivors},
    {"YoungSurvivorBytes", &CycleStats::YoungSurvivorBytes},
    {"DirtyCardsAtStart", &CycleStats::DirtyCardsAtStart},
    {"OldObjectsScanned", &CycleStats::OldObjectsScanned},
    {"CardScanAreaBytes", &CycleStats::CardScanAreaBytes},
    {"CardsRemarked", &CycleStats::CardsRemarked},
    {"SummaryChunksScanned", &CycleStats::SummaryChunksScanned},
    {"CardsSkippedBySummary", &CycleStats::CardsSkippedBySummary},
    {"ObjectsFreed", &CycleStats::ObjectsFreed},
    {"BytesFreed", &CycleStats::BytesFreed},
    {"LiveObjectsAfter", &CycleStats::LiveObjectsAfter},
    {"LiveBytesAfter", &CycleStats::LiveBytesAfter},
    {"LiveEstimateBytes", &CycleStats::LiveEstimateBytes},
};

struct GoldenCycle {
  CycleKind Kind;
  uint64_t Counts[std::size(GoldenFields)];
};

// The per-cycle counts of runWorkload at one lane.
// The other tests here compare runs with each other, so a change that
// alters what *every* run collects passes them; this table catches it.
// Re-record it only for a change meant to collect differently.  The heap
// keeps one central free list per size class, so the counts do not depend
// on the core count.
constexpr CycleKind Partial = CycleKind::Partial;
constexpr CycleKind Full = CycleKind::Full;
constexpr CycleKind NonGen = CycleKind::NonGenerational;

constexpr GoldenCycle SimplePromotionCycles[] = {
    {Full, {16384, 85, 5408, 85, 5408, 1987, 0, 0, 0, 0, 0, 1902, 120224, 85, 5408, 5408}},
    {Partial, {16384, 143, 8816, 136, 8416, 2025, 7, 128432, 0, 132, 1040128, 1882, 119616, 221, 13824, 13824}},
    {Full, {16384, 136, 8416, 136, 8416, 2040, 0, 0, 0, 0, 0, 2118, 137056, 136, 8416, 8416}},
    {Partial, {16384, 143, 8992, 135, 8416, 1980, 8, 125504, 0, 135, 1039936, 1837, 116512, 271, 16832, 16832}},
    {Full, {16384, 134, 9104, 134, 9104, 2055, 0, 0, 0, 0, 0, 2184, 138608, 134, 9104, 9104}},
    {Partial, {16384, 188, 11152, 181, 10704, 2024, 7, 129168, 0, 137, 1039808, 1836, 118016, 315, 19808, 19808}},
};

constexpr GoldenCycle AgingCycles[] = {
    {Full, {16384, 85, 5408, 85, 5408, 1987, 0, 0, 0, 0, 0, 1902, 120224, 85, 5408, 5408}},
    {Partial, {16384, 135, 8384, 135, 8384, 2576, 0, 0, 0, 157, 1038528, 1968, 125056, 135, 8384, 8384}},
    {Full, {16384, 136, 8416, 136, 8416, 2040, 0, 0, 0, 0, 0, 2032, 131616, 136, 8416, 8416}},
    {Partial, {16384, 133, 8320, 133, 8320, 2518, 0, 0, 0, 156, 1038592, 1975, 125024, 133, 8320, 8320}},
    {Full, {16384, 134, 9104, 134, 9104, 2055, 0, 0, 0, 0, 0, 2046, 130096, 134, 9104, 9104}},
    {Partial, {16384, 178, 10544, 178, 10544, 2759, 0, 0, 0, 168, 1037824, 1973, 127280, 178, 10544, 10544}},
};

// The DLG baseline and the STW comparator collect exactly the same.
constexpr GoldenCycle WholeHeapCycles[] = {
    {NonGen, {0, 85, 5408, 85, 5408, 0, 0, 0, 0, 0, 0, 1902, 120224, 85, 5408, 5408}},
    {NonGen, {0, 135, 8384, 135, 8384, 0, 0, 0, 0, 0, 0, 1968, 125056, 135, 8384, 8384}},
    {NonGen, {0, 136, 8416, 136, 8416, 0, 0, 0, 0, 0, 0, 2032, 131616, 136, 8416, 8416}},
    {NonGen, {0, 133, 8320, 133, 8320, 0, 0, 0, 0, 0, 0, 1975, 125024, 133, 8320, 8320}},
    {NonGen, {0, 134, 9104, 134, 9104, 0, 0, 0, 0, 0, 0, 2046, 130096, 134, 9104, 9104}},
    {NonGen, {0, 178, 10544, 178, 10544, 0, 0, 0, 0, 0, 0, 1973, 127280, 178, 10544, 10544}},
};

TEST_P(DeterminismTest, CountsMatchTheGoldenTable) {
  const GoldenCycle *Golden =
      GetParam().Choice != CollectorChoice::Generational ? WholeHeapCycles
      : GetParam().Aging                                 ? AgingCycles
                                                         : SimplePromotionCycles;
  GcRunStats Stats = runWorkload(GetParam().Choice, GetParam().Aging);
  ASSERT_EQ(Stats.Cycles.size(), 6u);
  for (size_t I = 0; I < Stats.Cycles.size(); ++I) {
    const CycleStats &Got = Stats.Cycles[I];
    SCOPED_TRACE("cycle " + std::to_string(I));
    EXPECT_EQ(Got.Kind, Golden[I].Kind);
    for (size_t F = 0; F < std::size(GoldenFields); ++F)
      EXPECT_EQ(Got.*GoldenFields[F].Field, Golden[I].Counts[F])
          << GoldenFields[F].Name;
  }
}

TEST_P(DeterminismTest, IdenticalStatsAcrossRunsAtOneGcThread) {
  GcRunStats First = runWorkload(GetParam().Choice, GetParam().Aging);
  GcRunStats Second = runWorkload(GetParam().Choice, GetParam().Aging);
  expectIdenticalCollectionStats(First, Second);
}

TEST_P(DeterminismTest, TracingDoesNotPerturbCollection) {
  // Event tracing must be purely observational: the same workload with the
  // rings enabled produces bit-identical collection statistics.
  GcRunStats Off = runWorkload(GetParam().Choice, GetParam().Aging,
                               /*Tracing=*/false);
  GcRunStats On = runWorkload(GetParam().Choice, GetParam().Aging,
                              /*Tracing=*/true);
  expectIdenticalCollectionStats(Off, On);
}

TEST_P(DeterminismTest, PrefetchWindowDoesNotPerturbCollection) {
  // The software-prefetch window reorders the gray-stack traversal (FIFO
  // within the window instead of pure LIFO) but the traced SET is fixed by
  // the color CAS, so every collection statistic — all order-independent
  // sums — must be identical at depth 0 (the plain LIFO loop), the
  // default depth, and the maximum window.
  GcRunStats Off = runWorkload(GetParam().Choice, GetParam().Aging,
                               /*Tracing=*/false, /*PrefetchDepth=*/0);
  GcRunStats Default = runWorkload(GetParam().Choice, GetParam().Aging);
  GcRunStats Wide =
      runWorkload(GetParam().Choice, GetParam().Aging, /*Tracing=*/false,
                  /*PrefetchDepth=*/int(Tracer::MaxPrefetchDepth));
  expectIdenticalCollectionStats(Off, Default);
  expectIdenticalCollectionStats(Off, Wide);
}

TEST_P(DeterminismTest, LaneCountDoesNotPerturbCollection) {
  // Lanes change who traces, scans and sweeps what, never what is traced,
  // scanned or swept.
  GcRunStats One = runWorkload(GetParam().Choice, GetParam().Aging);
  GcRunStats Four =
      runWorkload(GetParam().Choice, GetParam().Aging, /*Tracing=*/false,
                  /*PrefetchDepth=*/-1, /*GcThreads=*/4);
  bool SimplePromotion = GetParam().Choice == CollectorChoice::Generational &&
                         !GetParam().Aging;
  expectSameCountsAcrossLaneCounts(One, Four, SimplePromotion);
}

INSTANTIATE_TEST_SUITE_P(
    Collectors, DeterminismTest,
    ::testing::Values(
        DeterminismParam{CollectorChoice::Generational, false, "GenSimple"},
        DeterminismParam{CollectorChoice::Generational, true, "GenAging"},
        DeterminismParam{CollectorChoice::NonGenerational, false, "Dlg"},
        DeterminismParam{CollectorChoice::StopTheWorld, false, "Stw"}),
    [](const auto &Info) { return std::string(Info.param.Name); });

} // namespace
