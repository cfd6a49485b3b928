//===- gc/Tracer.cpp - Per-lane tri-color trace engine ---------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/Tracer.h"

#include <algorithm>
#include <thread>

#include "gc/ParallelTrace.h"
#include "runtime/ObjectModel.h"
#include "support/Prefetch.h"
#include "support/Timer.h"

using namespace gengc;

void Tracer::setPrefetchDepth(unsigned Depth) {
  if (!PrefetchAvailable)
    Depth = 0;
  PrefetchDepth = std::min(Depth, MaxPrefetchDepth);
}

void Tracer::markBlack(ObjectRef Ref, Color BlackColor, GrayCounters &Counters,
                       Result &R) {
  // A buffered entry may have been processed already via another path
  // (duplicates are possible when a mutator shades during root marking);
  // only gray objects are traced.
  if (H.loadColor(Ref, std::memory_order_acquire) != Color::Gray)
    return;
  PageTouchTracker &Pages = H.pages();
  uint32_t RefSlots = objectRefSlots(H, Ref);
  Pages.touchRange(Region::Arena, Ref,
                   ObjectHeaderBytes + uint64_t(RefSlots) * RefSlotBytes);
  Color Clear = State.clearColor();
  // Aging: this object tenures at the coming sweep; its pointers to
  // objects that will stay young must rest on dirty cards (see
  // setAgingThreshold).
  bool WillTenure =
      AgingOldestAge != 0 && H.ages().ageOf(Ref) == AgingOldestAge;
  for (uint32_t I = 0; I < RefSlots; ++I) {
    ObjectRef Son = loadRefSlot(H, Ref, I);
    if (Son == NullRef)
      continue;
    Pages.touch(Region::ColorTable, Son >> GranuleShift);
    if (WillTenure && H.ages().ageOf(Son) < AgingOldestAge)
      H.cards().markCard(refSlotOffset(Ref, I));
    if (tryMarkGray(H, Son, Clear)) {
      // Batched into lane-locals: one pair of fetch_adds per segment of
      // marks instead of two shared-cache-line RMWs per shaded son.
      ++PendingFromClear;
      PendingFromClearBytes += H.storageBytesOf(Son);
      Stack.push(Son);
    }
  }
  H.storeColor(Ref, BlackColor);
  ++R.ObjectsTraced;
  R.BytesTraced += H.storageBytesOf(Ref);
  if (++MarksSinceFlush >= TraceSegment::Capacity)
    flushCounters(Counters);
}

void Tracer::drainLocal(TraceWorkList &Shared, unsigned Lanes,
                        Color BlackColor, GrayCounters &Counters, Result &R) {
  // Offload the oldest segment when the local stack has plenty and fewer
  // segments are parked than there are sibling lanes to take them, so a
  // lone lane never offloads (it could only steal the segment back).  An
  // O(1) pointer swap — the old vector engine paid an O(n) front-erase
  // here, which must not come back (WorkerPoolTest pins the zero-copy
  // steal, micro_trace_scale the cost).
  auto MaybeOffload = [&] {
    if (Stack.size() < 2 * size_t(TraceSegment::Capacity) ||
        Shared.approxSegments() >= Lanes - 1)
      return;
    if (TraceSegment *S = Stack.detachBottom()) {
      Shared.push(S);
      ++R.Offloads;
    }
  };

  if (PrefetchDepth == 0) {
    // Plain LIFO pop order, no window: the reference loop the determinism
    // tests hold the prefetch window against.
    while (!Stack.empty()) {
      MaybeOffload();
      markBlack(Stack.pop(), BlackColor, Counters, R);
    }
  } else {
    // Bounded FIFO prefetch window: refs are popped up to PrefetchDepth
    // ahead and their color byte + header line prefetched on entry, so the
    // cache misses of the next K objects overlap the tracing of the
    // current one (memory-level parallelism for pointer chasing).
    ObjectRef Window[MaxPrefetchDepth];
    unsigned Head = 0, Tail = 0;
    for (;;) {
      while (Head - Tail < PrefetchDepth && !Stack.empty()) {
        MaybeOffload();
        ObjectRef Next = Stack.pop();
        prefetchRead(H.colorPrefetchAddress(Next));
        prefetchRead(H.prefetchAddress(Next));
        Window[Head++ % MaxPrefetchDepth] = Next;
      }
      if (Head == Tail)
        break;
      markBlack(Window[Tail++ % MaxPrefetchDepth], BlackColor, Counters, R);
    }
  }
  flushCounters(Counters);
}

void Tracer::drainShared(TraceWorkList &Shared, std::atomic<unsigned> &NumIdle,
                         unsigned Lanes, Color BlackColor,
                         GrayCounters &Counters, Result &R) {
  for (;;) {
    // drainLocal leaves the window empty and the counters flushed, so an
    // idle vote below never hides work or statistics from the leader.
    drainLocal(Shared, Lanes, BlackColor, Counters, R);
    if (TraceSegment *S = Shared.steal()) {
      if (Obs)
        Obs->instant(ObsEventKind::TraceSteal, nowNanos(), S->Count);
      Stack.attachSegment(S);
      continue;
    }
    // Idle consensus: a lane deposits segments only while it is active, so
    // once every lane has voted idle the shared list cannot refill — the
    // last voter's failed steal saw it empty and no active lane remains.
    // Anything shaded by mutators meanwhile sits in the shared gray
    // buffer, which the leader drains after the pool run.
    NumIdle.fetch_add(1, std::memory_order_acq_rel);
    for (;;) {
      if (!Shared.empty()) {
        NumIdle.fetch_sub(1, std::memory_order_acq_rel);
        break;
      }
      if (NumIdle.load(std::memory_order_acquire) == Lanes)
        return;
      std::this_thread::yield();
    }
  }
}
