//===- runtime/CollectorState.h - State shared with mutators ----*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handful of atomic variables through which the collector and the
/// mutators coordinate without ever stopping the world:
///
///  - the collector status (async / sync1 / sync2) driving the handshake
///    protocol (Section 2);
///  - the allocation and clear colors of the color toggle (Section 5);
///  - the coarse collector phase, which the write barrier consults for its
///    "Collector is tracing" test (Figure 1);
///  - the barrier variant (none / simple / aging) selecting between the
///    Figure 1 and Figure 4 mutator routines.
///
/// Each mutator additionally keeps its own status (its perception of the
/// current handshake); see runtime/Mutator.h.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_COLLECTORSTATE_H
#define GENGC_RUNTIME_COLLECTORSTATE_H

#include <atomic>

#include "heap/Color.h"
#include "runtime/GrayBuffer.h"

namespace gengc {

/// Handshake statuses.  A cycle advances async -> sync1 -> sync2 -> async.
enum class HandshakeStatus : uint8_t {
  Async = 0,
  Sync1 = 1,
  Sync2 = 2,
};

/// Coarse collector phase, read (racily, by design) by the write barrier.
enum class GcPhase : uint8_t {
  Idle = 0,
  Clear,
  Mark,
  Trace,
  Sweep,
  /// Lazy sweep (SweepPolicy::Lazy): the phase that replaces Sweep —
  /// publishes every size-class block needs-sweep instead of walking it.
  PublishSweep,
  /// Lazy sweep: drains blocks the mutators have not claimed since the
  /// previous publish.  Runs at the *start* of a cycle, before the toggle.
  SweepResidue,
};

/// Which mutator-side barrier code is in effect.
enum class BarrierKind : uint8_t {
  /// Non-generational DLG: no card marking at all.
  NonGenerational,
  /// Figure 1: card marking during async only; MarkGray also shades
  /// allocation-colored (yellow) objects during sync1/sync2.
  Simple,
  /// Figure 4: card marking in every state, after the store; MarkGray
  /// shades clear-colored objects only.
  Aging,
};

/// Shared collector/mutator coordination state.
struct CollectorState {
  std::atomic<HandshakeStatus> StatusC{HandshakeStatus::Async};

  /// nowNanos() at the most recent handshake post, stored (relaxed) just
  /// before StatusC.  A mutator that adopts the posted status reads this to
  /// compute its request-to-response latency: the seq_cst StatusC load that
  /// revealed the new status orders the relaxed timestamp store before the
  /// read, so the latency can only be over-estimated by the gap between the
  /// two collector stores.  Purely observational — nothing in the protocol
  /// reads it.
  std::atomic<uint64_t> StatusPostNanos{0};
  std::atomic<Color> AllocationColor{Color::White};
  std::atomic<Color> ClearColor{Color::Yellow};
  std::atomic<GcPhase> Phase{GcPhase::Idle};
  std::atomic<BarrierKind> Barrier{BarrierKind::Simple};

  /// Objects shaded gray and not yet traced; drained by the tracer.
  GrayBuffer Grays;

  /// Remembered-set mode (the Section 3.1 alternative to card marking the
  /// paper rejected for Java's update rates): the async write barrier
  /// records the *updated object* here, deduplicated through a side flag
  /// table, instead of dirtying a card.  Simple promotion policy only.
  std::atomic<bool> UseRememberedSets{false};

  /// Objects recorded by the remembered-set barrier, awaiting the next
  /// partial collection.
  GrayBuffer Remembered;

  /// Number of threads currently between winning a gray CAS and finishing
  /// the buffer push.  The tracer's termination protocol waits for zero, so
  /// a shade whose enqueue is still in flight can never be missed.
  std::atomic<int64_t> InFlightShades{0};

  /// Stop-the-world support (the STW comparator and the degraded fallback,
  /// not used by the paper's on-the-fly cycles): when set, every mutator
  /// parks at its next cooperate() and stays parked until cleared; the
  /// collector shades the stopped threads' roots (HandshakeDriver).
  std::atomic<bool> StopWorld{false};

  /// Distinguishes consecutive stop-the-world pauses: bumped once per
  /// pause, just before StopWorld is raised.  A parked mutator publishes
  /// the epoch it is parked for, and the collector counts it stopped only
  /// for the current one, so a thread still leaving the previous pause
  /// (and about to mutate) is never trusted as stopped.
  std::atomic<uint64_t> StopEpoch{0};

  /// Allocation budget (bytes since the last completed collection) past
  /// which mutators stall until the collector catches up (see
  /// allocationBudgetHolds).  Concurrent collectors need this
  /// back-pressure: a mutator fleet that outruns the collector otherwise
  /// drives occupancy into permanent full-collection mode.  Set once by
  /// the collector (the same value for both collectors, so comparisons
  /// stay fair); UINT64_MAX disables throttling.
  std::atomic<uint64_t> ThrottleBytes{~0ull};

  /// True from Collector::start to Collector::stop: a collector thread is
  /// polling the trigger, so a cycle it calls for will come.
  std::atomic<bool> CollectorRunning{false};

  /// Number of watchdog deadline expirations so far (handshake waits plus
  /// whole-cycle deadlines).  Bumped by the firing thread, read by tests
  /// and the stats report.
  std::atomic<uint64_t> WatchdogFires{0};

  /// Number of color toggles so far.  Lazy sweep stamps each published
  /// block with this epoch; the block must be swept — its clear-colored
  /// cells freed under the meaning the publish fixed — before the next
  /// toggle reinterprets the colors (verified by HeapVerifier's
  /// deferred-sweep invariant).
  std::atomic<uint32_t> ColorEpoch{0};

  /// Swaps the allocation and clear colors (Section 5's toggle).  Only the
  /// collector calls this, at most once per cycle, so plain exchanged
  /// stores on the two atomics suffice.
  void switchAllocationClearColors() {
    Color Alloc = AllocationColor.load(std::memory_order_relaxed);
    Color Clear = ClearColor.load(std::memory_order_relaxed);
    ClearColor.store(Alloc, std::memory_order_seq_cst);
    AllocationColor.store(Clear, std::memory_order_seq_cst);
    ColorEpoch.fetch_add(1, std::memory_order_seq_cst);
  }

  Color allocationColor() const {
    return AllocationColor.load(std::memory_order_seq_cst);
  }
  Color clearColor() const {
    return ClearColor.load(std::memory_order_seq_cst);
  }

  /// True while the collector is between the start of trace and the end of
  /// trace — the write barrier's "Collector is tracing" test.
  bool isTracing() const {
    return Phase.load(std::memory_order_relaxed) == GcPhase::Trace;
  }

  /// True while a collection cycle is in progress at all.
  bool isCollecting() const {
    return Phase.load(std::memory_order_relaxed) != GcPhase::Idle;
  }

  /// True while a mutator past ThrottleBytes must stall: during every
  /// cycle, and under the generational barriers between cycles too, as
  /// long as a collector thread runs.  Their trigger fires at one young
  /// generation, below the budget, so a mutator stalled between cycles
  /// waits for a cycle that is already due, and a collector thread that
  /// wakes late cannot let the heap run dry.  The non-generational
  /// trigger does not fire on allocation, so nothing may be coming there.
  bool allocationBudgetHolds() const {
    return isCollecting() ||
           (Barrier.load(std::memory_order_relaxed) !=
                BarrierKind::NonGenerational &&
            CollectorRunning.load(std::memory_order_relaxed));
  }
};

} // namespace gengc

#endif // GENGC_RUNTIME_COLLECTORSTATE_H
