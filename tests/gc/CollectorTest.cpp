//===- tests/gc/CollectorTest.cpp ------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// The collector base machinery: thread lifecycle, request coalescing,
// trigger-driven autonomy, statistics bookkeeping and the memory-pressure
// path.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <thread>

#include "core/Runtime.h"

using namespace gengc;

namespace {

RuntimeConfig manualConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 8 << 20;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

TEST(Collector, StartStopIsIdempotent) {
  Runtime RT(manualConfig());
  RT.collector().stop();
  RT.collector().stop(); // second stop is a no-op
  RT.collector().start();
  SUCCEED();
}

TEST(Collector, DeferredStartViaConfig) {
  RuntimeConfig Config = manualConfig();
  Config.StartCollector = false;
  Runtime RT(Config);
  // No cycles can run yet; start explicitly.
  RT.startCollector();
  auto M = RT.attachMutator();
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_EQ(RT.collector().completedCycles(), 1u);
}

TEST(Collector, CompletedCyclesCounts) {
  Runtime RT(manualConfig());
  auto M = RT.attachMutator();
  EXPECT_EQ(RT.collector().completedCycles(), 0u);
  for (int I = 1; I <= 5; ++I) {
    RT.collector().collectSyncCooperating(CycleRequest::Partial, *M);
    EXPECT_EQ(RT.collector().completedCycles(), uint64_t(I));
  }
}

TEST(Collector, CollectSyncFromNonMutatorThread) {
  Runtime RT(manualConfig());
  // The test's main thread is not a registered mutator: collectSync works.
  RT.collector().collectSync(CycleRequest::Full);
  EXPECT_EQ(RT.collector().completedCycles(), 1u);
}

TEST(Collector, StatsResetClearsHistory) {
  Runtime RT(manualConfig());
  auto M = RT.attachMutator();
  RT.collector().collectSyncCooperating(CycleRequest::Partial, *M);
  EXPECT_EQ(RT.gcStats().Cycles.size(), 1u);
  RT.collector().resetStats();
  EXPECT_EQ(RT.gcStats().Cycles.size(), 0u);
  EXPECT_EQ(RT.gcStats().GcActiveNanos, 0u);
  // completedCycles is a lifetime counter, not part of the stats window.
  EXPECT_EQ(RT.collector().completedCycles(), 1u);
}

TEST(Collector, GcActiveMatchesCycleDurations) {
  Runtime RT(manualConfig());
  auto M = RT.attachMutator();
  for (int I = 0; I < 3; ++I)
    RT.collector().collectSyncCooperating(CycleRequest::Partial, *M);
  GcRunStats S = RT.gcStats();
  EXPECT_EQ(S.GcActiveNanos, S.totalAll(&CycleStats::DurationNanos));
}

TEST(Collector, TriggerFiresAutonomously) {
  RuntimeConfig Config = manualConfig();
  Config.Collector.Trigger.YoungBytes = 512 << 10;
  Config.Collector.PollMicros = 50;
  Runtime RT(Config);
  auto M = RT.attachMutator();
  // Allocate ~2 MB and give the poller time; at least one partial fires.
  for (int I = 0; I < 50000 && RT.collector().completedCycles() == 0; ++I) {
    M->allocate(1, 32);
    M->cooperate();
  }
  for (int Spin = 0;
       Spin < 1000 && RT.collector().completedCycles() == 0; ++Spin) {
    M->cooperate();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_GT(RT.collector().completedCycles(), 0u);
}

TEST(Collector, MemoryPressureRunsFullCollectionsInsteadOfFailing) {
  RuntimeConfig Config = manualConfig();
  Config.Heap.HeapBytes = 2 << 20; // tiny heap
  Config.Collector.Trigger.InitialSoftBytes = 2 << 20;
  Runtime RT(Config);
  auto M = RT.attachMutator();
  // Allocate 8 MB of garbage through a 2 MB heap: only possible if the
  // memory-wait path reclaims continuously.
  for (int I = 0; I < 200000; ++I) {
    M->allocate(1, 24);
    M->cooperate();
  }
  EXPECT_GT(RT.collector().memoryWaits(), 0u);
  EXPECT_GT(RT.collector().completedCycles(), 0u);
}

TEST(Collector, LateCollectorDoesNotRunTheHeapDry) {
  // A 50 ms poll stands in for a collector thread that wakes late, while
  // one mutator pushes 8 MB of garbage through a 2 MB heap.  Under the
  // generational barriers the allocation budget (1.5 young generations)
  // holds before the cycle begins, so the mutator stalls until the due
  // partial cycle has run instead of exhausting the heap.  The
  // non-generational trigger never fires here (FullFraction 1.1), so no
  // cycle is coming: the mutator must not stall, and memory waits are what
  // reclaim the heap.
  for (CollectorChoice Choice :
       {CollectorChoice::Generational, CollectorChoice::NonGenerational}) {
    SCOPED_TRACE(Choice == CollectorChoice::Generational ? "generational"
                                                         : "non-generational");
    RuntimeConfig Config = manualConfig();
    Config.Choice = Choice;
    Config.Heap.HeapBytes = 2 << 20;
    Config.Collector.Trigger.YoungBytes = 256 << 10;
    Config.Collector.PollMicros = 50 * 1000;
    Runtime RT(Config);
    auto M = RT.attachMutator();
    for (int I = 0; I < 200000; ++I) {
      M->allocate(1, 24);
      M->cooperate();
    }
    if (Choice == CollectorChoice::Generational) {
      EXPECT_EQ(RT.collector().memoryWaits(), 0u);
      EXPECT_GT(M->pauseStats().Count, 0u);
    } else {
      EXPECT_GT(RT.collector().memoryWaits(), 0u);
      EXPECT_EQ(M->pauseStats().Count, 0u);
    }
  }
}

TEST(Collector, PendingFullDominatesPartial) {
  Runtime RT(manualConfig());
  auto M = RT.attachMutator();
  // Queue both kinds before the collector can react; the coalesced request
  // must be Full (the stronger one).
  RT.collector().requestCycle(CycleRequest::Partial);
  RT.collector().requestCycle(CycleRequest::Full);
  uint64_t Before = RT.collector().completedCycles();
  while (RT.collector().completedCycles() == Before) {
    M->cooperate();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  GcRunStats S = RT.gcStats();
  EXPECT_EQ(S.Cycles.front().Kind, CycleKind::Full);
}

TEST(Collector, LiveEstimateFeedsTrigger) {
  RuntimeConfig Config = manualConfig();
  // Leave the soft limit room to grow (it is capped at the heap size).
  Config.Heap.HeapBytes = 32 << 20;
  Runtime RT(Config);
  auto M = RT.attachMutator();
  uint64_t SoftBefore = RT.collector().trigger().softLimitBytes();
  // Grow the live set by ~2 MB, collect, and watch the soft limit follow.
  size_t Slot = M->pushRoot(NullRef);
  for (int I = 0; I < 30000; ++I) {
    ObjectRef Node = M->allocate(1, 48);
    M->writeRef(Node, 0, M->root(Slot));
    M->setRoot(Slot, Node);
  }
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_GT(RT.collector().trigger().softLimitBytes(), SoftBefore);
  GcRunStats S = RT.gcStats();
  EXPECT_GT(S.Cycles.back().LiveEstimateBytes, 1u << 20);
  M->popRoots(M->numRoots());
}

TEST(Collector, ManyBackToBackCyclesAreStable) {
  Runtime RT(manualConfig());
  auto M = RT.attachMutator();
  ObjectRef Keep = M->allocate(1, 16);
  M->pushRoot(Keep);
  for (int I = 0; I < 50; ++I) {
    M->allocate(1, 16); // a little garbage each round
    RT.collector().collectSyncCooperating(
        I % 7 == 0 ? CycleRequest::Full : CycleRequest::Partial, *M);
    ASSERT_NE(RT.heap().loadColor(Keep), Color::Blue) << "cycle " << I;
  }
  EXPECT_EQ(RT.collector().completedCycles(), 50u);
  M->popRoots(1);
}

} // namespace
