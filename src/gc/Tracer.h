//===- gc/Tracer.h - Per-lane tri-color trace engine ------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace stage's per-lane engine: "While there is a gray object: pick a
/// gray object x; MarkBlack(x)" (Figure 2).  The paper leaves the mechanism
/// for finding gray objects unspecified ("we do not present details of the
/// mechanism for keeping track of the objects remaining to be traced");
/// ours gives every GcWorkerPool lane a private mark stack for the objects
/// it shades itself, and ParallelTracer (ParallelTrace.h) drives the lanes
/// through fixpoint rescans of the color side-table that pick up objects
/// shaded concurrently by mutator write barriers.  Because every shade
/// writes the gray color *before* anything else, a scan that finds no gray
/// object (with every stack empty) proves the trace is complete.
///
/// The hot path is packet-structured (DESIGN.md §17): the mark stack is a
/// chain of pooled TraceSegments, work moves between lanes as O(1) segment
/// swaps, shade accounting batches into lane-local counters flushed once
/// per segment, and an optional bounded prefetch window warms the color
/// byte and header line of upcoming gray refs while the current one is
/// traced.  Depth 0 bypasses the window and traces in plain LIFO order.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TRACER_H
#define GENGC_GC_TRACER_H

#include <atomic>

#include "gc/TraceSegment.h"
#include "heap/Heap.h"
#include "obs/EventRing.h"
#include "runtime/CollectorState.h"
#include "runtime/WriteBarrier.h"

namespace gengc {

class TraceWorkList;

/// One lane's trace engine.  Each GcWorkerPool lane drives its own Tracer
/// with a private segmented gray stack, coordinating with its siblings only
/// through the shared TraceWorkList (segment-granularity work stealing) and
/// the color side-table CASes.  ParallelTracer owns the lanes and the
/// termination protocol at every lane count.
class Tracer {
public:
  /// Upper bound on the prefetch window (a power of two: the window ring
  /// masks with it).  Also the RuntimeConfig::validate bound.
  static constexpr unsigned MaxPrefetchDepth = 64;

  /// One lane's share of a trace.
  struct Result {
    /// Number of MarkBlack executions ("objects scanned" of Figure 11).
    uint64_t ObjectsTraced = 0;
    /// Their storage footprint.
    uint64_t BytesTraced = 0;
    /// Segments this lane offloaded to the shared work list.
    uint64_t Offloads = 0;
  };

  /// \p Pool is the collector-wide segment pool (ParallelTracer's) that
  /// this lane's gray stack borrows from.
  Tracer(Heap &H, CollectorState &S, TraceSegmentPool &Pool)
      : H(H), State(S), Stack(Pool) {}

  /// Enables aging-mode card maintenance during the trace: when MarkBlack
  /// blackens an object whose age equals \p OldestAge (it will be tenured
  /// by the coming sweep), the cards of its still-young sons are marked.
  ///
  /// This closes a hole in the paper's Figure 6: ClearCards clears the
  /// dirty mark of a card whose objects are young — correct at that
  /// moment — but the same cycle can then tenure the parent while the
  /// sweep demotes its son back to the young generation, leaving an
  /// old->young pointer on a clean card; the following partial collection
  /// would reclaim the live son.  Section 6's requirement that
  /// "inter-generational pointers are recorded correctly during the
  /// collection cycle" demands exactly this maintenance.  Pass 0 to
  /// disable (simple promotion and the DLG baseline).
  void setAgingThreshold(uint8_t OldestAge) { AgingOldestAge = OldestAge; }

  /// Routes this engine's TraceSteal events to \p Ring (its lane's event
  /// ring; null disables emission).
  void setObsRing(EventRing *Ring) { Obs = Ring; }

  /// Sets the prefetch window depth: up to \p Depth gray refs are popped
  /// ahead and their color byte + header line prefetched before they are
  /// traced.  Clamped to [0, MaxPrefetchDepth]; forced to 0 in builds
  /// without GENGC_PREFETCH (a window without prefetch is pure overhead).
  /// Depth 0 traces in plain LIFO order.
  void setPrefetchDepth(unsigned Depth);

  /// Queues the gray object \p Ref on this lane's stack.  Only between
  /// drainShared runs: the stack is lane-private while one is in progress.
  void push(ObjectRef Ref) { Stack.push(Ref); }

  /// Blackens everything on this engine's stack, offloading surplus
  /// segments to \p Shared while a sibling lane could take them and
  /// stealing segments back when the local stack runs dry.  Returns once
  /// all \p Lanes engines are idle with the shared list empty (the
  /// \p NumIdle counter implements the termination consensus).  Every
  /// color transition goes through the heap's CASes, so the
  /// mutator-graying vs. collector race argument is the same at any lane
  /// count.  \p BlackColor is the color that marks a fully traced object
  /// (see ParallelTracer::trace); shades of the sons from the clear color
  /// are recorded in \p Counters.
  void drainShared(TraceWorkList &Shared, std::atomic<unsigned> &NumIdle,
                   unsigned Lanes, Color BlackColor, GrayCounters &Counters,
                   Result &R);

private:
  /// MarkBlack (Figure 3): shades all sons of \p Ref gray, then colors
  /// \p Ref with \p BlackColor.
  void markBlack(ObjectRef Ref, Color BlackColor, GrayCounters &Counters,
                 Result &R);

  /// Blackens everything on the local stack, offloading surplus bottom
  /// segments to \p Shared while ahead.  Leaves the batched shade counters
  /// flushed.
  void drainLocal(TraceWorkList &Shared, unsigned Lanes, Color BlackColor,
                  GrayCounters &Counters, Result &R);

  /// Publishes the batched FromClear counts into \p Counters.  Batching is
  /// statistics-only: termination never reads these counters, so deferring
  /// the atomics to segment boundaries is safe (DESIGN.md §17).
  void flushCounters(GrayCounters &Counters) {
    if (PendingFromClear != 0) {
      Counters.FromClear.fetch_add(PendingFromClear,
                                   std::memory_order_relaxed);
      Counters.FromClearBytes.fetch_add(PendingFromClearBytes,
                                        std::memory_order_relaxed);
      PendingFromClear = 0;
      PendingFromClearBytes = 0;
    }
    MarksSinceFlush = 0;
  }

  Heap &H;
  CollectorState &State;
  EventRing *Obs = nullptr;
  SegmentedGrayStack Stack;
  unsigned PrefetchDepth = 0;
  /// Shade accounting batched per segment (see flushCounters).
  uint64_t PendingFromClear = 0;
  uint64_t PendingFromClearBytes = 0;
  uint32_t MarksSinceFlush = 0;
  uint8_t AgingOldestAge = 0;
};

} // namespace gengc

#endif // GENGC_GC_TRACER_H
