//===- tests/gc/ParallelCycleTest.cpp --------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// Correctness of the parallel cycle engine at GcThreads = 4: every
// collector variant must preserve reachable objects, reclaim garbage, and
// report coherent per-lane statistics, with and without concurrent mutator
// load.  These tests are also compiled into the ThreadSanitizer binary
// (test_gc_tsan), where they double as the data-race regression suite for
// the worker pool, the work-stealing trace, the sharded card scan and the
// parallel sweep.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <thread>

#include "core/Runtime.h"
#include "support/Random.h"

using namespace gengc;

namespace {

RuntimeConfig parallelConfig(CollectorChoice Choice, bool Aging) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 32ull << 20;
  Config.Heap.CardBytes = 16;
  Config.Choice = Choice;
  Config.Collector.GcThreads = 4;
  Config.Collector.Aging = Aging;
  Config.Collector.OldestAge = 3;
  // Triggering stays manual (huge thresholds); the tests request cycles.
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 16ull << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

struct ParallelParam {
  ParallelParam(CollectorChoice Choice, bool Aging, const char *Name)
      : Choice(Choice), Aging(Aging), Name(Name) {}

  CollectorChoice Choice;
  bool Aging;
  // gtest names each case after the raw bytes of its parameter, so the
  // bytes between Aging and Name are spelled out and zeroed: as implicit
  // padding they carried stack garbage into the test name.
  uint8_t Padding[6] = {};
  const char *Name;
};
static_assert(sizeof(ParallelParam) == 16, "ParallelParam has implicit padding");

class ParallelCycleTest : public ::testing::TestWithParam<ParallelParam> {};

/// Builds a chain of \p Len nodes rooted at slot \p Slot.
ObjectRef buildChain(Mutator &M, unsigned Slot, unsigned Len) {
  ObjectRef Head = NullRef;
  for (unsigned I = 0; I < Len; ++I) {
    ObjectRef Node = M.allocate(2, 16);
    M.writeRef(Node, 0, Head);
    Head = Node;
    M.setRoot(Slot, Head);
  }
  return Head;
}

TEST_P(ParallelCycleTest, PreservesReachableReclaimsGarbage) {
  Runtime RT(parallelConfig(GetParam().Choice, GetParam().Aging));
  auto M = RT.attachMutator();
  constexpr unsigned Keep = 8, ChainLen = 500;
  for (unsigned I = 0; I < 2 * Keep; ++I)
    M->pushRoot(NullRef);
  for (unsigned I = 0; I < 2 * Keep; ++I)
    buildChain(*M, I, ChainLen);
  // Drop half the chains: ChainLen * Keep objects become garbage.
  for (unsigned I = Keep; I < 2 * Keep; ++I)
    M->setRoot(I, NullRef);

  // Two full cycles: the first may float the dropped chains (shaded before
  // the drop), the second must reclaim them.
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);

  // Everything still rooted is alive and walkable.
  for (unsigned I = 0; I < Keep; ++I) {
    unsigned Steps = 0;
    for (ObjectRef Node = M->root(I); Node != NullRef;
         Node = M->readRef(Node, 0), ++Steps) {
      ASSERT_NE(RT.heap().loadColor(Node), Color::Blue);
      ASSERT_LE(Steps, ChainLen);
    }
    EXPECT_EQ(Steps, ChainLen);
  }

  GcRunStats Stats = RT.gcStats();
  ASSERT_EQ(Stats.Cycles.size(), 2u);
  uint64_t Freed = Stats.Cycles[0].ObjectsFreed + Stats.Cycles[1].ObjectsFreed;
  EXPECT_GE(Freed, uint64_t(Keep) * ChainLen);
  M->popRoots(M->numRoots());
}

TEST_P(ParallelCycleTest, ReportsPerLaneStatistics) {
  Runtime RT(parallelConfig(GetParam().Choice, GetParam().Aging));
  auto M = RT.attachMutator();
  M->pushRoot(NullRef);
  buildChain(*M, 0, 2000);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);

  GcRunStats Stats = RT.gcStats();
  ASSERT_EQ(Stats.Cycles.size(), 1u);
  const CycleStats &Cycle = Stats.Cycles[0];
  EXPECT_EQ(Cycle.GcWorkers, 4u);
  ASSERT_EQ(Cycle.TraceWorkerNanos.size(), 4u);
  ASSERT_EQ(Cycle.SweepWorkerNanos.size(), 4u);
  // Lane 0 is the collector thread itself; it always participates.
  EXPECT_GT(Cycle.TraceWorkerNanos[0], 0u);
  EXPECT_GT(Cycle.SweepWorkerNanos[0], 0u);
  EXPECT_GE(Cycle.ObjectsTraced, 2000u);
  M->popRoots(M->numRoots());
}

TEST_P(ParallelCycleTest, SurvivesMutatorLoadAcrossManyCycles) {
  Runtime RT(parallelConfig(GetParam().Choice, GetParam().Aging));
  constexpr unsigned NumThreads = 3;
  constexpr uint64_t OpsPerThread = 6000;
  std::atomic<bool> Stop{false};

  // A driver thread forces back-to-back cycles (alternating kinds for the
  // generational collector) while mutators churn the graph; it runs at
  // least MinCycles even if the mutators finish first.
  constexpr unsigned MinCycles = 6;
  std::thread Driver([&] {
    auto M = RT.attachMutator();
    bool Partial = false;
    for (unsigned Cycle = 0;
         Cycle < MinCycles || !Stop.load(std::memory_order_acquire); ++Cycle) {
      RT.collector().collectSyncCooperating(
          Partial ? CycleRequest::Partial : CycleRequest::Full, *M);
      Partial = !Partial;
    }
  });

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Rng Rand(0x5EED + T);
      auto M = RT.attachMutator();
      constexpr unsigned Ring = 32;
      for (unsigned I = 0; I < Ring; ++I)
        M->pushRoot(NullRef);
      for (uint64_t Op = 0; Op < OpsPerThread; ++Op) {
        M->cooperate();
        unsigned Slot = unsigned(Rand.nextBelow(Ring));
        switch (Rand.nextBelow(4)) {
        case 0:
        case 1: {
          ObjectRef Node = M->allocate(2, uint32_t(Rand.nextInRange(8, 48)));
          M->writeRef(Node, 0, M->root(Slot));
          M->setRoot(Slot, Node);
          break;
        }
        case 2:
          M->setRoot(Slot, NullRef);
          break;
        case 3: {
          unsigned Steps = 0;
          for (ObjectRef Node = M->root(Slot); Node != NullRef && Steps < 64;
               Node = M->readRef(Node, 0), ++Steps)
            ASSERT_NE(RT.heap().loadColor(Node), Color::Blue)
                << "reachable object reclaimed by a parallel cycle";
          break;
        }
        }
      }
      M->popRoots(M->numRoots());
    });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Driver.join();
  EXPECT_GE(RT.collector().completedCycles(), MinCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Collectors, ParallelCycleTest,
    ::testing::Values(
        ParallelParam{CollectorChoice::Generational, false, "GenSimple"},
        ParallelParam{CollectorChoice::Generational, true, "GenAging"},
        ParallelParam{CollectorChoice::NonGenerational, false, "Dlg"},
        ParallelParam{CollectorChoice::StopTheWorld, false, "Stw"}),
    [](const auto &Info) { return std::string(Info.param.Name); });

} // namespace
