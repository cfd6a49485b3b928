//===- gc/Trigger.cpp - Collection triggering -------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/Trigger.h"

#include <algorithm>

#include "heap/Heap.h"
#include "support/MathExtras.h"

using namespace gengc;

Trigger::Trigger(const TriggerPolicy &Policy, bool Generational,
                 uint64_t MaxHeapBytes)
    : Policy(Policy), Generational(Generational), MaxHeapBytes(MaxHeapBytes),
      SoftLimit(std::min(Policy.InitialSoftBytes, MaxHeapBytes)) {}

CycleRequest Trigger::evaluate(const Heap &H) const {
  uint64_t Used = H.usedBytes();
  uint64_t Soft = SoftLimit.load(std::memory_order_relaxed);
  if (double(Used) >= Policy.FullFraction * double(Soft))
    return CycleRequest::Full;
  if (Generational && H.allocatedSinceGcBytes() >= Policy.YoungBytes)
    return CycleRequest::Partial;
  return CycleRequest::None;
}

void Trigger::afterCycle(uint64_t LiveEstimateBytes) {
  uint64_t Soft = SoftLimit.load(std::memory_order_relaxed);
  // Grow the committed heap so the program has allocation headroom before
  // the next occupancy trigger — the JVM analogue of growing the heap from
  // its 1 MB initial size toward the 32 MB maximum as the live set and
  // allocation rate demand.  Three young generations of headroom: one for
  // the allocation budget itself, one for what mutators allocate *during*
  // the concurrent cycle (not reclaimable until the following cycle), and
  // a half for floating garbage, so a full collection indicates genuine
  // live-set growth rather than ordinary on-the-fly slack.  The same
  // calculation runs with and without generations (Section 8).
  double Target = (double(LiveEstimateBytes) +
                   3.0 * double(Policy.YoungBytes)) /
                  Policy.FullFraction;
  uint64_t Rounded = alignTo(uint64_t(Target) + 1, 64 << 10);
  Soft = std::min(std::max(Soft, Rounded), MaxHeapBytes);
  SoftLimit.store(Soft, std::memory_order_relaxed);
}
