//===- tests/integration/ConcurrentStressTest.cpp - Races under load -------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// Adversarial concurrency: mutator threads hammer allocation, pointer
// updates and root churn while the collector free-runs on its trigger.
// The invariant checked throughout: no reachable object is ever observed
// blue (reclaimed), and the process neither deadlocks nor corrupts the
// object graph.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <thread>

#include "core/GenGc.h"
#include "support/Random.h"

using namespace gengc;

namespace {

RuntimeConfig stressConfig(CollectorChoice Choice, bool Aging = false,
                           unsigned GcThreads = 1) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 16ull << 20;
  Config.Heap.CardBytes = 16;
  Config.Choice = Choice;
  Config.Collector.Aging = Aging;
  Config.Collector.OldestAge = 3;
  Config.Collector.GcThreads = GcThreads;
  // Aggressive triggering: collect roughly every 256 KB of allocation so
  // many cycles overlap the mutator work.
  Config.Collector.Trigger.YoungBytes = 256 << 10;
  Config.Collector.Trigger.InitialSoftBytes = 1 << 20;
  Config.Collector.PollMicros = 50;
  return Config;
}

/// Each thread maintains a rooted ring of linked lists, constantly
/// replacing and re-linking nodes while verifying everything it can still
/// reach is unreclaimed.
void stressThread(Runtime &RT, unsigned Idx, uint64_t Ops) {
  Rng Rand(0xABCD + Idx);
  auto M = RT.attachMutator();
  constexpr unsigned Ring = 64;
  RootScope Roots(*M);
  for (unsigned I = 0; I < Ring; ++I)
    Roots.add(NullRef);

  for (uint64_t Op = 0; Op < Ops; ++Op) {
    M->cooperate();
    unsigned Slot = unsigned(Rand.nextBelow(Ring));
    switch (Rand.nextBelow(5)) {
    case 0:
    case 1: { // allocate a node chained onto a random root
      ObjectRef Node =
          M->allocate(2, uint32_t(Rand.nextInRange(8, 64)));
      M->writeRef(Node, 0, M->root(Slot));
      M->setRoot(Slot, Node);
      break;
    }
    case 2: { // drop a chain
      M->setRoot(Slot, NullRef);
      break;
    }
    case 3: { // cross-link two chains (exercises the deletion barrier)
      ObjectRef A = M->root(Slot);
      ObjectRef B = M->root(unsigned(Rand.nextBelow(Ring)));
      if (A != NullRef)
        M->writeRef(A, 1, B);
      break;
    }
    case 4: { // walk a chain, asserting reachability
      unsigned Steps = 0;
      for (ObjectRef Node = M->root(Slot);
           Node != NullRef && Steps < 100;
           Node = M->readRef(Node, 0), ++Steps)
        ASSERT_NE(RT.heap().loadColor(Node), Color::Blue)
            << "reachable object was reclaimed under load";
      break;
    }
    }
  }
}

struct StressParam {
  CollectorChoice Choice;
  bool Aging;
  unsigned GcThreads;
  const char *Name;
};

// gtest writes a parameter without a PrintTo into the test name as its raw
// bytes, padding and pointers included, which change from build to build.
void PrintTo(const StressParam &P, std::ostream *OS) { *OS << P.Name; }

class ConcurrentStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ConcurrentStressTest, ReachableObjectsNeverReclaimed) {
  Runtime RT(stressConfig(GetParam().Choice, GetParam().Aging,
                          GetParam().GcThreads));
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t Ops = 400000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&RT, T] { stressThread(RT, T, Ops); });
  for (std::thread &T : Threads)
    T.join();
  // The collector must have actually run during the stress.
  EXPECT_GT(RT.collector().completedCycles(), 0u);

  // Post-stress heap invariants: after a final full cycle with no mutator
  // load, no object may be left gray, and block metadata must be coherent
  // for every object-holding block.
  {
    auto M = RT.attachMutator();
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  }
  const Heap &H = RT.heap();
  for (size_t B = 0; B < H.numBlocks(); ++B) {
    const BlockDescriptor &Desc = H.block(B);
    if (Desc.State == BlockState::SizeClass) {
      ASSERT_GT(Desc.CellBytes, 0u);
      ASSERT_GT(Desc.NumCells, 0u);
      uint64_t Base = uint64_t(B) << Heap::BlockShift;
      for (uint32_t Cell = 0; Cell < Desc.NumCells; ++Cell)
        ASSERT_NE(H.loadColor(ObjectRef(Base + uint64_t(Cell) *
                                        Desc.CellBytes)),
                  Color::Gray)
            << "gray object left behind after an idle full cycle";
    } else if (Desc.State == BlockState::LargeStart) {
      ASSERT_GT(Desc.RunBlocks, 0u);
      ASSERT_NE(H.loadColor(ObjectRef(uint64_t(B) << Heap::BlockShift)),
                Color::Gray);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Collectors, ConcurrentStressTest,
    ::testing::Values(
        StressParam{CollectorChoice::Generational, false, 1, "GenSimple"},
        StressParam{CollectorChoice::Generational, true, 1, "GenAging"},
        StressParam{CollectorChoice::NonGenerational, false, 1, "Dlg"},
        StressParam{CollectorChoice::Generational, false, 4, "GenSimpleGc4"},
        StressParam{CollectorChoice::Generational, true, 4, "GenAgingGc4"},
        StressParam{CollectorChoice::NonGenerational, false, 4, "DlgGc4"}),
    [](const auto &Info) { return std::string(Info.param.Name); });

TEST(ConcurrentStress, BlockedThreadsDoNotStallHandshakes) {
  Runtime RT(stressConfig(CollectorChoice::Generational));
  auto Blockee = RT.attachMutator();
  std::atomic<bool> Release{false};

  // One thread parks itself blocked for the whole test.
  std::thread Parked([&] {
    BlockedScope Scope(*Blockee);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });

  // Another allocates enough to force multiple cycles; if blocked threads
  // stalled handshakes this would deadlock (the test would time out).
  std::thread Worker([&] { stressThread(RT, 7, 300000); });
  Worker.join();

  // And an explicit cycle with ONLY the parked thread present: its three
  // handshakes must complete on the blocked mutator's behalf.
  {
    auto Requester = RT.attachMutator();
    RT.collector().collectSyncCooperating(CycleRequest::Full, *Requester);
  }
  EXPECT_GT(RT.collector().completedCycles(), 0u);

  Release.store(true, std::memory_order_release);
  Parked.join();
}

TEST(ConcurrentStress, MutatorsMayComeAndGoMidCycle) {
  Runtime RT(stressConfig(CollectorChoice::Generational));
  std::atomic<bool> Stop{false};
  std::thread Churner([&] {
    // Threads register and deregister continuously.
    for (unsigned I = 0; !Stop.load(std::memory_order_acquire); ++I) {
      auto M = RT.attachMutator();
      for (int J = 0; J < 50; ++J) {
        M->allocate(1, 16);
        M->cooperate();
      }
    }
  });
  std::thread Worker([&] { stressThread(RT, 9, 300000); });
  Worker.join();
  Stop.store(true, std::memory_order_release);
  Churner.join();
  EXPECT_GT(RT.collector().completedCycles(), 0u);
}

} // namespace
