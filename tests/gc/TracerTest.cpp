//===- tests/gc/TracerTest.cpp ---------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// The trace engine on one lane: ParallelTracer over a one-lane
// GcWorkerPool, the configuration every collector runs by default.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "gc/ParallelTrace.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"

using namespace gengc;

namespace {

struct TracerTest : ::testing::Test {
  TracerTest()
      : H(HeapConfig{.HeapBytes = 4 << 20}), Registry(State),
        M(H, State, Registry), Pool(1), Engine(H, State, Pool) {}

  /// Allocates an object with \p Slots ref slots, colored \p C.
  ObjectRef makeObject(Color C, uint32_t Slots = 2) {
    ObjectRef Ref = M.allocate(Slots, 8);
    H.storeColor(Ref, C);
    return Ref;
  }

  /// Links Parent.slot[I] = Child without any barrier.
  void link(ObjectRef Parent, uint32_t I, ObjectRef Child) {
    storeRefSlotRaw(H, Parent, I, Child);
  }

  /// Shades an object gray and queues it, as roots/card scans would.
  void shade(ObjectRef Ref) {
    H.storeColor(Ref, Color::Gray);
    State.Grays.push(Ref);
  }

  Heap H;
  CollectorState State;
  MutatorRegistry Registry;
  Mutator M;
  GcWorkerPool Pool;
  ParallelTracer Engine;
  GrayCounters Counters;
};

TEST_F(TracerTest, EmptyTraceTerminates) {
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 0u);
  EXPECT_GE(R.Passes, 1u) << "at least one verification pass";
}

TEST_F(TracerTest, TracesLinkedChainFromGrayRoot) {
  Color Clear = State.clearColor();
  ObjectRef A = makeObject(Clear), B = makeObject(Clear),
            C = makeObject(Clear);
  link(A, 0, B);
  link(B, 1, C);
  shade(A);
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 3u);
  EXPECT_EQ(H.loadColor(A), Color::Black);
  EXPECT_EQ(H.loadColor(B), Color::Black);
  EXPECT_EQ(H.loadColor(C), Color::Black);
}

TEST_F(TracerTest, DoesNotTraceAllocationColoredSons) {
  Color Clear = State.clearColor();
  ObjectRef A = makeObject(Clear);
  ObjectRef Yellow = makeObject(State.allocationColor());
  link(A, 0, Yellow);
  shade(A);
  Engine.trace(Color::Black, Counters);
  EXPECT_EQ(H.loadColor(A), Color::Black);
  EXPECT_EQ(H.loadColor(Yellow), State.allocationColor())
      << "yellow objects are not traced (Section 4)";
}

TEST_F(TracerTest, DoesNotRevisitBlackSons) {
  ObjectRef A = makeObject(State.clearColor());
  ObjectRef Old = makeObject(Color::Black);
  link(A, 0, Old);
  shade(A);
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 1u) << "black sons are already done";
}

TEST_F(TracerTest, HandlesCyclesInTheObjectGraph) {
  Color Clear = State.clearColor();
  ObjectRef A = makeObject(Clear), B = makeObject(Clear);
  link(A, 0, B);
  link(B, 0, A);
  link(A, 1, A); // self loop too
  shade(A);
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 2u);
  EXPECT_EQ(H.loadColor(A), Color::Black);
  EXPECT_EQ(H.loadColor(B), Color::Black);
}

TEST_F(TracerTest, UnreachedClearObjectsStayClear) {
  Color Clear = State.clearColor();
  ObjectRef Garbage = makeObject(Clear);
  ObjectRef Live = makeObject(Clear);
  shade(Live);
  Engine.trace(Color::Black, Counters);
  EXPECT_EQ(H.loadColor(Garbage), Clear);
}

TEST_F(TracerTest, VerificationScanFindsUnqueuedGrays) {
  // A gray object whose buffer enqueue "got lost" (simulating the in-flight
  // race the verification pass guards against).
  ObjectRef Orphan = makeObject(State.clearColor());
  H.storeColor(Orphan, Color::Gray); // gray but never pushed
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(H.loadColor(Orphan), Color::Black);
  EXPECT_EQ(R.ObjectsTraced, 1u);
}

TEST_F(TracerTest, NonGenerationalBlackIsAllocationColor) {
  Color Clear = State.clearColor();
  Color Alloc = State.allocationColor();
  ObjectRef A = makeObject(Clear), B = makeObject(Clear);
  link(A, 0, B);
  shade(A);
  Engine.trace(Alloc, Counters); // Remark 5.1: black = allocation color
  EXPECT_EQ(H.loadColor(A), Alloc);
  EXPECT_EQ(H.loadColor(B), Alloc);
}

TEST_F(TracerTest, CountsBytesAndSurvivors) {
  Color Clear = State.clearColor();
  ObjectRef A = makeObject(Clear), B = makeObject(Clear);
  link(A, 0, B);
  shade(A);
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.BytesTraced, H.storageBytesOf(A) + H.storageBytesOf(B));
  // B was shaded from clear by the tracer; A was shaded by the test
  // directly (as the collector's root marking would count separately).
  EXPECT_EQ(Counters.FromClear.load(), 1u);
}

TEST_F(TracerTest, TracesLargeObjects) {
  ObjectRef Run = H.allocateLarge(100 << 10);
  ASSERT_NE(Run, NullRef);
  initObject(H, Run, 3, 0, 100 << 10);
  ObjectRef Son = makeObject(State.clearColor());
  link(Run, 2, Son);
  H.storeColor(Run, Color::Gray);
  State.Grays.push(Run);
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 2u);
  EXPECT_EQ(H.loadColor(Run), Color::Black);
  EXPECT_EQ(H.loadColor(Son), Color::Black);
}

TEST_F(TracerTest, WideFanoutTracesEverything) {
  Color Clear = State.clearColor();
  ObjectRef Hub = M.allocate(64, 0);
  H.storeColor(Hub, Clear);
  std::vector<ObjectRef> Leaves;
  for (uint32_t I = 0; I < 64; ++I) {
    ObjectRef Leaf = makeObject(Clear, 0);
    link(Hub, I, Leaf);
    Leaves.push_back(Leaf);
  }
  shade(Hub);
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 65u);
  for (ObjectRef Leaf : Leaves)
    EXPECT_EQ(H.loadColor(Leaf), Color::Black);
}

TEST_F(TracerTest, OneLaneMovesNoWorkThroughTheSharedList) {
  // Enough pending grays for many segments: a lane with a sibling would
  // offload some of them, a lone lane keeps them all on its own stack.
  for (int I = 0; I < 1000; ++I)
    shade(makeObject(State.clearColor(), 0));
  ParallelTracer::Result R = Engine.trace(Color::Black, Counters);
  EXPECT_EQ(R.ObjectsTraced, 1000u);
  EXPECT_EQ(R.Offloads, 0u);
  EXPECT_EQ(R.Steals, 0u);
}

} // namespace
