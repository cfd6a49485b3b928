//===- runtime/Roots.cpp - Global roots ------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/Roots.h"

using namespace gengc;

size_t GlobalRoots::addRoot(ObjectRef Initial) {
  std::scoped_lock Locked(Mutex);
  Slots.emplace_back(Initial);
  return Slots.size() - 1;
}

size_t GlobalRoots::size() const {
  std::scoped_lock Locked(Mutex);
  return Slots.size();
}

ObjectRef GlobalRoots::get(size_t Index) const {
  std::scoped_lock Locked(Mutex);
  GENGC_ASSERT(Index < Slots.size(), "global root index out of range");
  return Slots[Index].load(std::memory_order_acquire);
}

void GlobalRoots::set(size_t Index, ObjectRef Value) {
  {
    std::scoped_lock Locked(Mutex);
    GENGC_ASSERT(Index < Slots.size(), "global root index out of range");
    Slots[Index].store(Value, std::memory_order_release);
  }
  // Shade the stored value while the collector is establishing or tracing
  // its snapshot.  During sweep (and idle) no shading is needed: the trace
  // is complete and the value is already protected.
  GcPhase Phase = State.Phase.load(std::memory_order_acquire);
  if (Phase != GcPhase::Idle && Phase != GcPhase::Sweep && Value != NullRef) {
    markGrayClearOnly(H, State, Value, StoreShadeCounters);
    // Also cover values carrying the allocation color during the toggle
    // window, mirroring the Figure 1 exception.
    shadeGray(H, State, Value, State.allocationColor());
  }
}

void GlobalRoots::markAll(GrayCounters &Counters) {
  std::scoped_lock Locked(Mutex);
  for (std::atomic<ObjectRef> &Slot : Slots) {
    ObjectRef Root = Slot.load(std::memory_order_acquire);
    if (Root != NullRef)
      markGrayClearOnly(H, State, Root, Counters);
  }
}
