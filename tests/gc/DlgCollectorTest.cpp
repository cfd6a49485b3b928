//===- tests/gc/DlgCollectorTest.cpp ---------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/Runtime.h"

using namespace gengc;

namespace {

RuntimeConfig baseConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 8 << 20;
  Config.Choice = CollectorChoice::NonGenerational;
  Config.Collector.Trigger.YoungBytes = 1ull << 40; // manual cycles only
  Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

TEST(DlgCollector, UsesNonGenerationalBarrier) {
  Runtime RT(baseConfig());
  EXPECT_EQ(RT.state().Barrier.load(), BarrierKind::NonGenerational);
}

TEST(DlgCollector, EveryCycleIsNonGenerational) {
  Runtime RT(baseConfig());
  auto M = RT.attachMutator();
  RT.collector().collectSyncCooperating(CycleRequest::Partial, *M);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  GcRunStats S = RT.gcStats();
  ASSERT_EQ(S.Cycles.size(), 2u);
  for (const CycleStats &C : S.Cycles)
    EXPECT_EQ(C.Kind, CycleKind::NonGenerational);
}

TEST(DlgCollector, ColorToggleAlternatesAcrossCycles) {
  Runtime RT(baseConfig());
  auto M = RT.attachMutator();
  Color First = RT.state().allocationColor();
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  Color Second = RT.state().allocationColor();
  EXPECT_EQ(Second, otherToggleColor(First)) << "Remark 5.1 toggle";
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_EQ(RT.state().allocationColor(), First);
}

TEST(DlgCollector, SurvivorsCarryAllocationColorAfterCycle) {
  Runtime RT(baseConfig());
  auto M = RT.attachMutator();
  ObjectRef Obj = M->allocate(1, 16);
  M->pushRoot(Obj);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  // With the toggle, "black" of the finished cycle is the allocation color
  // that was current during the cycle.
  EXPECT_EQ(RT.heap().loadColor(Obj), RT.state().allocationColor());
  M->popRoots(1);
}

TEST(DlgCollector, ReclaimsGarbageEveryCycle) {
  Runtime RT(baseConfig());
  auto M = RT.attachMutator();
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    for (int I = 0; I < 1000; ++I)
      M->allocate(1, 24);
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
    GcRunStats S = RT.gcStats();
    EXPECT_GE(S.Cycles.back().ObjectsFreed, 1000u)
        << "cycle " << Cycle << " must reclaim the garbage";
  }
}

TEST(DlgCollector, NoCardsEverDirty) {
  Runtime RT(baseConfig());
  auto M = RT.attachMutator();
  ObjectRef A = M->allocate(2, 8);
  ObjectRef B = M->allocate(2, 8);
  M->pushRoot(A);
  M->writeRef(A, 0, B);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  M->writeRef(A, 1, B);
  EXPECT_EQ(RT.heap().cards().countDirty(), 0u);
  M->popRoots(1);
}

TEST(DlgCollector, GarbageWithCyclesIsReclaimed) {
  Runtime RT(baseConfig());
  auto M = RT.attachMutator();
  // Build a cyclic structure, then drop it: reference counting would leak
  // this; tracing must not.
  ObjectRef A = M->allocate(1, 8);
  ObjectRef B = M->allocate(1, 8);
  M->pushRoot(A);
  M->writeRef(A, 0, B);
  M->writeRef(B, 0, A);
  M->popRoots(1);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_EQ(RT.heap().loadColor(A), Color::Blue);
  EXPECT_EQ(RT.heap().loadColor(B), Color::Blue);
}

TEST(DlgCollectorDeathTest, RejectsAging) {
  // Constructing the baseline with aging is a usage error.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RuntimeConfig Config = baseConfig();
  EXPECT_DEATH(
      {
        Heap H(Config.Heap);
        CollectorState S;
        MutatorRegistry Registry(S);
        GlobalRoots Roots(H, S);
        CollectorConfig GcConfig = Config.Collector;
        GcConfig.Aging = true;
        Collector C(H, S, Registry, Roots, GcConfig);
      },
      "no aging mechanism");
}

} // namespace
