//===- tests/gc/SweeperTest.cpp --------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// The sweep on one lane: sweepParallel over a one-lane GcWorkerPool, the
// configuration every collector runs by default.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "gc/Sweeper.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"

using namespace gengc;

namespace {

struct SweeperTest : ::testing::Test {
  SweeperTest()
      : H(HeapConfig{.HeapBytes = 4 << 20}), Registry(State),
        M(H, State, Registry), Pool(1) {}

  ObjectRef makeObject(Color C) {
    ObjectRef Ref = M.allocate(1, 16);
    H.storeColor(Ref, C);
    return Ref;
  }

  /// One whole-heap sweep; \p OldestAge is the tenuring threshold (aging
  /// mode only).
  Sweeper::Result sweep(SweepMode Mode, uint8_t OldestAge) {
    return sweepParallel(H, State, Pool, SweepPlan{Mode, OldestAge}).Total;
  }

  Heap H;
  CollectorState State;
  MutatorRegistry Registry;
  Mutator M;
  GcWorkerPool Pool;
};

TEST_F(SweeperTest, FreesClearColoredCells) {
  ObjectRef Dead = makeObject(State.clearColor());
  Sweeper::Result R = sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(H.loadColor(Dead), Color::Blue);
  EXPECT_GE(R.ObjectsFreed, 1u);
  EXPECT_GE(R.BytesFreed, H.storageBytesOf(Dead));
}

TEST_F(SweeperTest, SimpleModeKeepsBlackBlack) {
  ObjectRef Old = makeObject(Color::Black);
  sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(H.loadColor(Old), Color::Black)
      << "black doubles as 'old'; sweep must not recolor it (Section 3)";
}

TEST_F(SweeperTest, KeepsAllocationColored) {
  ObjectRef Yellow = makeObject(State.allocationColor());
  Sweeper::Result R = sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(H.loadColor(Yellow), State.allocationColor());
  EXPECT_EQ(R.AllocColoredBytes, H.storageBytesOf(Yellow));
}

TEST_F(SweeperTest, LeavesGrayLeftoversAlone) {
  ObjectRef Gray = makeObject(Color::Gray);
  sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(H.loadColor(Gray), Color::Gray)
      << "late-shaded objects float to the next cycle";
}

TEST_F(SweeperTest, CountsLiveCorrectly) {
  makeObject(Color::Black);
  makeObject(Color::Black);
  makeObject(State.allocationColor());
  makeObject(State.clearColor()); // dead
  Sweeper::Result R = sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(R.LiveObjectsAfter, 3u);
  EXPECT_EQ(R.ObjectsFreed, 1u);
}

TEST_F(SweeperTest, FreedCellsAreReusable) {
  std::vector<ObjectRef> Dead;
  for (int I = 0; I < 1000; ++I)
    Dead.push_back(makeObject(State.clearColor()));
  uint64_t UsedBefore = H.usedBytes();
  sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_LT(H.usedBytes(), UsedBefore);
  // New allocations can land on the freed cells.
  ObjectRef Fresh = M.allocate(1, 16);
  EXPECT_NE(Fresh, NullRef);
}

TEST_F(SweeperTest, FreesLargeRuns) {
  ObjectRef Run = H.allocateLarge(100 << 10);
  ASSERT_NE(Run, NullRef);
  initObject(H, Run, 0, 0, 100 << 10);
  H.storeColor(Run, State.clearColor());
  uint32_t BlockIdx = H.blockIndexOf(Run);
  Sweeper::Result R = sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(H.block(BlockIdx).State, BlockState::Free);
  EXPECT_GE(R.BytesFreed, 100u << 10);
}

TEST_F(SweeperTest, KeepsLiveLargeRuns) {
  ObjectRef Run = H.allocateLarge(80 << 10);
  ASSERT_NE(Run, NullRef);
  initObject(H, Run, 0, 0, 80 << 10);
  H.storeColor(Run, Color::Black);
  sweep(SweepMode::GenerationalSimple, 2);
  EXPECT_EQ(H.block(H.blockIndexOf(Run)).State, BlockState::LargeStart);
  EXPECT_EQ(H.loadColor(Run), Color::Black);
}

//===----------------------------------------------------------------------===
// Aging mode (Figure 5).
//===----------------------------------------------------------------------===

TEST_F(SweeperTest, AgingRecolorsYoungSurvivorsAndIncrementsAge) {
  ObjectRef Young = makeObject(Color::Black); // traced this cycle
  H.ages().setAge(Young, 1);
  sweep(SweepMode::GenerationalAging, 4);
  EXPECT_EQ(H.loadColor(Young), State.allocationColor())
      << "young survivors rejoin the young generation";
  EXPECT_EQ(H.ages().ageOf(Young), 2);
}

TEST_F(SweeperTest, AgingKeepsTenuredBlack) {
  ObjectRef Old = makeObject(Color::Black);
  H.ages().setAge(Old, 4); // at the threshold
  sweep(SweepMode::GenerationalAging, 4);
  EXPECT_EQ(H.loadColor(Old), Color::Black);
  EXPECT_EQ(H.ages().ageOf(Old), 4) << "age stops at the threshold";
}

TEST_F(SweeperTest, AgingAgesAllocationColoredObjectsToo) {
  // Figure 5's elseif applies to every non-clear object, including ones
  // created during the cycle.
  ObjectRef Created = makeObject(State.allocationColor());
  H.ages().setAge(Created, 1);
  sweep(SweepMode::GenerationalAging, 4);
  EXPECT_EQ(H.ages().ageOf(Created), 2);
  EXPECT_EQ(H.loadColor(Created), State.allocationColor());
}

TEST_F(SweeperTest, AgingResetsAgeOfFreedCells) {
  ObjectRef Dead = makeObject(State.clearColor());
  H.ages().setAge(Dead, 3);
  sweep(SweepMode::GenerationalAging, 4);
  EXPECT_EQ(H.loadColor(Dead), Color::Blue);
  EXPECT_EQ(H.ages().ageOf(Dead), 0);
}

TEST_F(SweeperTest, AgingPromotionAfterThresholdCollections) {
  ObjectRef Obj = makeObject(Color::Black);
  H.ages().setAge(Obj, 1);
  for (uint8_t Expected = 2; Expected <= 3; ++Expected) {
    sweep(SweepMode::GenerationalAging, 3);
    EXPECT_EQ(H.ages().ageOf(Obj), Expected);
    EXPECT_EQ(H.loadColor(Obj), State.allocationColor())
        << "age " << unsigned(Expected) << " was just assigned; the object "
        << "rejoins the young generation until the next trace";
    // Re-blacken, as the next trace would for a reachable object.
    H.storeColor(Obj, Color::Black);
  }
  // Age reached the threshold: the sweep now leaves it black — tenured.
  sweep(SweepMode::GenerationalAging, 3);
  EXPECT_EQ(H.loadColor(Obj), Color::Black);
  EXPECT_EQ(H.ages().ageOf(Obj), 3);
}

//===----------------------------------------------------------------------===
// Non-generational mode.
//===----------------------------------------------------------------------===

TEST_F(SweeperTest, NonGenKeepsAllocationColoredSurvivors) {
  ObjectRef Survivor = makeObject(State.allocationColor());
  ObjectRef Dead = makeObject(State.clearColor());
  Sweeper::Result R = sweep(SweepMode::NonGenerational, 0);
  EXPECT_EQ(H.loadColor(Survivor), State.allocationColor());
  EXPECT_EQ(H.loadColor(Dead), Color::Blue);
  EXPECT_EQ(R.LiveObjectsAfter, 1u);
}

} // namespace
