//===- obs/Event.h - Observability event vocabulary -------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the tracing subsystem.  Every actor that emits
/// events — the collector thread, each GC worker lane, each mutator — owns
/// one EventRing (see obs/EventRing.h) and writes fixed-size ObsEvent
/// records into it.  Events are either *spans* (a start timestamp plus a
/// duration) or *instants* (duration zero); the two integer arguments carry
/// kind-specific payload, documented per kind below.
///
/// The vocabulary is deliberately small and flat: a uint8_t kind, two u64
/// args, and a source identity attached by the ring, so the hot-path store
/// sequence stays a handful of relaxed stores and the exporters need no
/// per-kind schemas.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_OBS_EVENT_H
#define GENGC_OBS_EVENT_H

#include <cstdint>

namespace gengc {

/// What kind of actor owns an event ring.
enum class ObsSource : uint8_t {
  /// The collector thread (cycle, phase and handshake-post events).
  Collector = 0,
  /// One GC worker lane (trace/sweep/card-scan activity).  Lane 0 is the
  /// collector thread wearing its worker hat.
  GcLane = 1,
  /// One registered mutator thread.
  Mutator = 2,
};

/// Returns a printable name for \p Source.
const char *obsSourceName(ObsSource Source);

/// Every event kind the subsystem records.
enum class ObsEventKind : uint8_t {
  /// Instant, collector ring: a collection cycle begins.
  /// Arg0 = CycleKind, Arg1 = cycle index (completed cycles so far).
  CycleBegin = 0,
  /// Instant, collector ring: the cycle ended.  Args as CycleBegin.
  CycleEnd,
  /// Span, collector ring: one pipeline phase (emitted from runCyclePhases).
  /// Arg0 = GcPhase.
  Phase,
  /// Instant, collector ring: postHandshake published a new status.
  /// Arg0 = HandshakeStatus posted.
  HandshakeReq,
  /// Span, mutator ring: this mutator adopted a posted status; the span
  /// runs from the post to the response, so its duration is the
  /// request-to-response latency.  Arg0 = HandshakeStatus adopted,
  /// Arg1 = 1 when the collector responded on behalf of a blocked thread.
  HandshakeAck,
  /// Span, mutator ring: the thread stalled for the collector.
  /// Arg0 = StallCause, Arg1 = bytes allocated since the last GC when the
  /// stall began (throttle stalls) or 0.
  AllocStall,
  /// Span, lane ring: the lane's share of one trace phase.
  /// Arg0 = objects traced by this lane.
  TraceSpan,
  /// Instant, lane ring: the lane stole a chunk of gray work.
  /// Arg0 = refs in the stolen chunk (post-steal stack growth).
  TraceSteal,
  /// Span, lane ring: the lane's share of one sweep phase.
  /// Arg0 = objects freed by this lane, Arg1 = blocks swept.
  SweepSpan,
  /// Span, lane ring: one claimed block range inside a sweep.
  /// Arg0 = first block index, Arg1 = number of blocks.
  SweepChunk,
  /// Instant, lane ring: the two-level card scan opened a dirty summary
  /// chunk.  Arg0 = summary chunk index.
  CardChunkOpen,
  /// Instant, mutator ring: the out-of-memory escalation ladder advanced a
  /// step (see OomEscalationStep).  Arg0 = OomEscalationStep, Arg1 = the
  /// failed attempt count when the step was taken.
  OomEscalation,
  /// Instant, collector ring: a watchdog deadline expired (handshake wait
  /// or whole-cycle).  Arg0 = HandshakeStatus posted when it fired,
  /// Arg1 = nanoseconds waited.
  WatchdogFire,
  /// Instant, collector ring: a heap-verifier pass completed cleanly.
  /// Arg0 = VerifyScope, Arg1 = number of checks run.
  VerifyPass,
  /// Instant, mutator ring: a cache refill found its class list's mutex
  /// contended (had to block behind another refill or a sweep flush).
  /// Arg0 = size-class index.
  ListContention,
  /// Instant, collector ring: an on-the-fly cycle was aborted mid-flight
  /// and unwound to a consistent pre-cycle state (watchdog escalation or
  /// an injected TraceAbort/SweepAbort fault).  Arg0 = GcPhase the abort
  /// was requested in, Arg1 = watchdog fires of the escalating wait (0 for
  /// fault-injected aborts).
  CycleAbort,
  /// Instant, collector ring: degraded-mode transition.  Arg0 = 1 when
  /// entering (subsequent cycles run as the cooperating-STW fallback), 0
  /// when leaving (a degraded cycle saw every mutator park voluntarily).
  /// Arg1 = mutators forced by the cycle that caused the transition.
  DegradedMode,
  /// Instant, collector ring: the watchdog escalation ladder advanced a
  /// rung (see EscalationAction).  Arg0 = EscalationAction, Arg1 =
  /// action-specific count (fires for Refire, mutators forced for
  /// ForceAdopt / StwFallback, 0 for the rest).
  EscalationStep,
};

/// Number of distinct ObsEventKind values (array sizing).
constexpr unsigned NumObsEventKinds =
    unsigned(ObsEventKind::EscalationStep) + 1;

/// Returns a printable name for \p Kind (stable; the exporters and the
/// gengc_trace summarizer both key on it).
const char *obsEventKindName(ObsEventKind Kind);

/// Why a mutator stalled (AllocStall's Arg0).
enum class StallCause : uint8_t {
  /// The during-cycle allocation budget was exhausted
  /// (CollectorState::ThrottleBytes back-pressure).
  Throttle = 0,
  /// The heap was exhausted and the thread waited inside waitForMemory.
  OutOfMemory = 1,
};

/// Which rung of the out-of-memory escalation ladder was taken
/// (OomEscalation's Arg0).  See Mutator::allocate for the ladder itself.
enum class OomEscalationStep : uint8_t {
  /// An ordinary waitForMemory round: wait for a full collection, retry.
  Wait = 0,
  /// The emergency rung: the mutator returned its other thread-local cache
  /// chains to the heap before waiting, so hoarded free memory becomes
  /// allocatable again.
  Emergency = 1,
  /// The ladder was exhausted and the installed OomHandler was invoked.
  Handler = 2,
  /// The handler chose GiveUp; the allocation returns NullRef.
  GaveUp = 3,
};

/// Which rung of the watchdog escalation ladder was taken (EscalationStep's
/// Arg0).  The ladder, in order: re-fire the stall report on a capped
/// backoff schedule, force-complete the laggards' handshakes, abort the
/// on-the-fly cycle, run the next cycles as cooperating-STW, and return to
/// on-the-fly once a degraded cycle needed no forcing.  DESIGN.md §19.
enum class EscalationAction : uint8_t {
  /// A still-stalled wait re-fired its stall report.
  Refire = 0,
  /// Lagging mutators were force-adopted to the posted status (their owed
  /// root shades are skipped; the cycle is aborted right after).
  ForceAdopt = 1,
  /// The on-the-fly cycle was aborted and unwound to pre-cycle state.
  AbortCycle = 2,
  /// A cycle ran as the cooperating-STW degraded fallback.
  StwFallback = 3,
  /// Handshakes succeed again; on-the-fly collection resumed.
  Recovered = 4,
};

/// One recorded event, as read out of a ring.
struct ObsEvent {
  /// nowNanos() when the event (or span) began.
  uint64_t StartNanos = 0;
  /// Span length; 0 for instants.
  uint64_t DurationNanos = 0;
  /// Kind-specific payload (see ObsEventKind).
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
  ObsEventKind Kind = ObsEventKind::CycleBegin;
};

/// Static configuration of the tracing side of the subsystem.  Metrics
/// (histograms, gauges, the MetricsSnapshot) are always on — they are a
/// few relaxed counter bumps on paths that are already slow.  Event rings
/// are gated by Tracing because they cost memory (Capacity * 64 bytes per
/// actor) and a timestamp per event.
struct ObsConfig {
  /// Record events into per-actor rings.  Off by default; on or off, a
  /// collector reports the same collection counts (the DeterminismTest
  /// contract).
  bool Tracing = false;

  /// Events per ring; rounded up to a power of two, minimum 64.  At the
  /// default, one ring is 512 KiB of event slots.
  uint32_t RingEvents = 8192;
};

} // namespace gengc

#endif // GENGC_OBS_EVENT_H
