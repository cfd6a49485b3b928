//===- tests/gc/RuntimeFacadeTest.cpp --------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// The core/Runtime facade: construction variants, accessor wiring, and the
// configuration fix-ups it performs on behalf of the user.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/Runtime.h"

using namespace gengc;

namespace {

TEST(RuntimeFacade, DefaultsMatchThePaper) {
  RuntimeConfig Config;
  EXPECT_EQ(Config.Heap.HeapBytes, 32ull << 20);
  EXPECT_EQ(Config.Heap.CardBytes, 16u);
  EXPECT_EQ(Config.Collector.Trigger.YoungBytes, 4ull << 20);
  EXPECT_EQ(Config.Choice, CollectorChoice::Generational);
  EXPECT_FALSE(Config.Collector.Aging);
}

TEST(RuntimeFacade, AccessorsAreWired) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 4 << 20;
  Runtime RT(Config);
  EXPECT_EQ(RT.heap().heapBytes(), 4u << 20);
  EXPECT_EQ(RT.globalRoots().size(), 0u);
  EXPECT_EQ(RT.registry().size(), 0u);
  EXPECT_EQ(RT.config().Heap.HeapBytes, 4u << 20);
  EXPECT_EQ(RT.gcStats().Cycles.size(), 0u);
}

TEST(RuntimeFacade, TriggerGenerationalityFollowsChoice) {
  for (auto [Choice, Expected] :
       {std::pair{CollectorChoice::Generational, true},
        std::pair{CollectorChoice::NonGenerational, false},
        std::pair{CollectorChoice::StopTheWorld, false}}) {
    RuntimeConfig Config;
    Config.Heap.HeapBytes = 4 << 20;
    Config.Choice = Choice;
    Runtime RT(Config);
    EXPECT_EQ(RT.collector().trigger().generational(), Expected);
  }
}

TEST(RuntimeFacade, AgingAndRemsetsStrippedFromNonGenerational) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 4 << 20;
  Config.Choice = CollectorChoice::NonGenerational;
  Config.Collector.Aging = true; // would assert inside Collector
  Config.Collector.RememberedSets = true;
  Runtime RT(Config); // must not die
  EXPECT_FALSE(RT.state().UseRememberedSets.load());
}

TEST(RuntimeFacade, AttachedMutatorHasMemoryBackpressure) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 2 << 20; // tiny: forces the waiter path
  Config.Collector.Trigger.InitialSoftBytes = 2 << 20;
  Runtime RT(Config);
  auto M = RT.attachMutator();
  // 6 MB of garbage through a 2 MB heap only works with the waiter wired.
  for (int I = 0; I < 100000; ++I) {
    M->allocate(1, 40);
    M->cooperate();
  }
  SUCCEED();
}

TEST(RuntimeFacade, BarrierKindMatchesChoice) {
  struct Case {
    CollectorChoice Choice;
    bool Aging;
    BarrierKind Expected;
  } Cases[] = {
      {CollectorChoice::Generational, false, BarrierKind::Simple},
      {CollectorChoice::Generational, true, BarrierKind::Aging},
      {CollectorChoice::NonGenerational, false,
       BarrierKind::NonGenerational},
      {CollectorChoice::StopTheWorld, false,
       BarrierKind::NonGenerational},
  };
  for (const Case &C : Cases) {
    RuntimeConfig Config;
    Config.Heap.HeapBytes = 4 << 20;
    Config.Choice = C.Choice;
    Config.Collector.Aging = C.Aging;
    Runtime RT(Config);
    EXPECT_EQ(RT.state().Barrier.load(), C.Expected);
  }
}

TEST(RuntimeFacadeDeathTest, DestructionWithLiveMutatorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RuntimeConfig Config;
        Config.Heap.HeapBytes = 4 << 20;
        auto RT = std::make_unique<Runtime>(Config);
        auto M = RT->attachMutator();
        RT.reset(); // mutator still attached
      },
      "mutators must detach");
}

} // namespace
