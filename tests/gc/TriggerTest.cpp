//===- tests/gc/TriggerTest.cpp --------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "gc/Trigger.h"
#include "heap/Heap.h"

using namespace gengc;

namespace {

constexpr uint64_t MB = 1 << 20;

struct TriggerTest : ::testing::Test {
  TriggerTest() : H(HeapConfig{.HeapBytes = 32 * MB}) {}

  /// Makes the heap report roughly \p Bytes of used memory.
  void consume(uint64_t Bytes) {
    while (H.usedBytes() < Bytes)
      if (H.popFreeChain(NumSizeClasses - 1).Count == 0)
        FAIL() << "heap exhausted in test setup";
  }

  TriggerPolicy genPolicy() {
    TriggerPolicy P;
    P.YoungBytes = 4 * MB;
    return P;
  }

  Heap H;
};

TEST_F(TriggerTest, QuietHeapTriggersNothing) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  EXPECT_EQ(T.evaluate(H), CycleRequest::None);
}

TEST_F(TriggerTest, YoungAllocationTriggersPartial) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  T.afterCycle(0); // establish a grown soft limit
  consume(5 * MB); // > YoungBytes allocated since last GC
  EXPECT_EQ(T.evaluate(H), CycleRequest::Partial);
}

TEST_F(TriggerTest, NonGenerationalNeverRequestsPartial) {
  Trigger T(genPolicy(), /*Generational=*/false, H.heapBytes());
  T.afterCycle(0);
  consume(5 * MB);
  EXPECT_EQ(T.evaluate(H), CycleRequest::None)
      << "below the occupancy line, the baseline does not collect";
}

TEST_F(TriggerTest, OccupancyTriggersFull) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  // Soft limit starts at 1 MB; filling well past it must demand a full.
  consume(2 * MB);
  EXPECT_EQ(T.evaluate(H), CycleRequest::Full);
}

TEST_F(TriggerTest, FullTakesPriorityOverPartial) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  consume(30 * MB); // exceeds any line
  EXPECT_EQ(T.evaluate(H), CycleRequest::Full);
}

TEST_F(TriggerTest, SoftLimitGrowsWithLiveEstimate) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  uint64_t Initial = T.softLimitBytes();
  T.afterCycle(10 * MB);
  EXPECT_GT(T.softLimitBytes(), Initial);
  EXPECT_GE(T.softLimitBytes(),
            uint64_t((10 + 3 * 4) * double(MB) / 0.8) - MB);
}

TEST_F(TriggerTest, SoftLimitNeverExceedsHeap) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  T.afterCycle(100 * MB);
  EXPECT_LE(T.softLimitBytes(), H.heapBytes());
}

TEST_F(TriggerTest, SoftLimitIsMonotone) {
  Trigger T(genPolicy(), /*Generational=*/true, H.heapBytes());
  T.afterCycle(10 * MB);
  uint64_t High = T.softLimitBytes();
  T.afterCycle(1 * MB); // shrinking live set does not shrink the heap
  EXPECT_EQ(T.softLimitBytes(), High);
}

TEST_F(TriggerTest, IdenticalCalculationForBothCollectors) {
  Trigger TG(genPolicy(), /*Generational=*/true, H.heapBytes());
  Trigger TB(genPolicy(), /*Generational=*/false, H.heapBytes());
  for (uint64_t Live : {uint64_t(0), 2 * MB, 8 * MB, 20 * MB}) {
    TG.afterCycle(Live);
    TB.afterCycle(Live);
    EXPECT_EQ(TG.softLimitBytes(), TB.softLimitBytes())
        << "Section 8: the full-collection calculation must be identical";
  }
}

} // namespace
