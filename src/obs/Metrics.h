//===- obs/Metrics.h - Compact metrics snapshot -----------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact, copyable metrics view of a runtime: per-kind cycle
/// aggregates, latency histograms (stalls, stop-the-world pauses,
/// handshake response latency) and point-in-time gauges.  Built on demand
/// by Runtime::metrics() from the collector's run statistics and the
/// ObsRegistry's always-on histograms; the figure benches read their
/// numbers from this snapshot instead of hand-rolling counters on top of
/// raw CycleStats vectors.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_OBS_METRICS_H
#define GENGC_OBS_METRICS_H

#include "obs/CycleStats.h"
#include "obs/Histogram.h"

namespace gengc {

/// A point-in-time copy of every metric the subsystem keeps.
struct MetricsSnapshot {
  static constexpr unsigned NumKinds = 3; // CycleKind values

  /// Per-cycle-kind aggregates, indexed by CycleKind.
  struct KindAggregate {
    uint64_t Count = 0;
    uint64_t TotalDurationNanos = 0;
    uint64_t ObjectsFreed = 0;
    uint64_t BytesFreed = 0;
    uint64_t ObjectsTraced = 0;
  };
  KindAggregate Kinds[NumKinds];

  /// Total time a cycle was in progress (the Figure 10 stopwatch).
  uint64_t GcActiveNanos = 0;

  //===-- Gauges (state after the most recent cycle) ----------------------===
  uint64_t HeapBytes = 0;
  uint64_t LiveBytesAfterLastCycle = 0;
  uint64_t DirtyCardsAtLastCycleStart = 0;

  //===-- Event-ring accounting (0 with tracing off) ----------------------===
  uint64_t EventsWritten = 0;
  uint64_t EventsDropped = 0;

  //===-- Allocation path (one central free list per size class) ----------===
  /// Central-list refills (popFreeChains calls that found memory).
  uint64_t AllocRefills = 0;
  /// Always 0: every refill is served by its own class's list, so there is
  /// no other list to steal from.  Kept because gcperf reports it.
  uint64_t AllocRefillSteals = 0;
  /// Refills that carved a fresh block because their class's list was
  /// empty.
  uint64_t AllocCarveFallbacks = 0;
  /// Refills that found their class list's mutex contended on entry.
  uint64_t AllocShardContentions = 0;

  //===-- Trace engine (segmented gray stacks) ----------------------------===
  /// Segments stolen between trace lanes, summed over cycles.
  uint64_t TraceSteals = 0;
  /// Segments offloaded to the shared work list, summed over cycles.
  uint64_t TraceOffloads = 0;
  /// Trace-segment pool acquires, summed over cycles.
  uint64_t TraceSegmentsAcquired = 0;
  /// Time inside termination verification scans, summed over cycles.
  uint64_t TraceTermScanNanos = 0;
  /// Segments the pool ever allocated (high-water footprint gauge).
  uint64_t TraceSegmentsAllocated = 0;
  /// Segments currently resting on the pool free list (gauge).
  uint64_t TraceSegmentsPooled = 0;

  //===-- Cycle recovery (WatchdogPolicy::Escalate; DESIGN.md §19) --------===
  /// Cycles aborted mid-flight and unwound to pre-cycle state.
  uint64_t CycleAborts = 0;
  /// Cycles that ran as the cooperating-STW degraded fallback.
  uint64_t DegradedCycles = 0;
  /// Mutators force-adopted / force-shaded across all cycles.
  uint64_t ForcedMutators = 0;

  //===-- Latency histograms (always on) ----------------------------------===
  /// Voluntary allocation stalls (throttle + out-of-memory waits).
  HistogramSnapshot StallNanos;
  /// True stop-the-world parks (the STW comparator and the degraded
  /// fallback only; empty for the paper's on-the-fly collectors — their
  /// headline property).
  HistogramSnapshot StwPauseNanos;
  /// Handshake request-to-response latency, one sample per mutator per
  /// handshake.
  HistogramSnapshot HandshakeNanos;
  /// End-to-end request latency recorded by server-shaped workloads
  /// (workload/Scenario.h): open-loop scheduled arrival to completion, so
  /// collector-induced queueing is part of every sample.  Empty for the
  /// figure-shaped workloads.  The scenario matrix reads p50/p99/p999
  /// from here (quantileNanos).
  HistogramSnapshot RequestNanos;

  //===-- Accessors mirroring GcRunStats ----------------------------------===
  const KindAggregate &kind(CycleKind Kind) const {
    return Kinds[unsigned(Kind)];
  }

  uint64_t count(CycleKind Kind) const { return kind(Kind).Count; }

  uint64_t cyclesTotal() const {
    uint64_t N = 0;
    for (const KindAggregate &K : Kinds)
      N += K.Count;
    return N;
  }

  /// Mean cycle wall time of \p Kind in nanoseconds (0 when none ran).
  double meanCycleNanos(CycleKind Kind) const {
    const KindAggregate &K = kind(Kind);
    return K.Count == 0 ? 0.0
                        : double(K.TotalDurationNanos) / double(K.Count);
  }

  /// GC-active time as a percentage of \p ElapsedNanos (Figure 10).
  double percentActive(uint64_t ElapsedNanos) const {
    if (ElapsedNanos == 0)
      return 0.0;
    return 100.0 * double(GcActiveNanos) / double(ElapsedNanos);
  }

  /// Aggregates \p Stats into the per-kind slots (used by the builder;
  /// gauges and histograms are filled separately).
  void addCycles(const GcRunStats &Stats) {
    for (const CycleStats &C : Stats.Cycles) {
      KindAggregate &K = Kinds[unsigned(C.Kind)];
      ++K.Count;
      K.TotalDurationNanos += C.DurationNanos;
      K.ObjectsFreed += C.ObjectsFreed;
      K.BytesFreed += C.BytesFreed;
      K.ObjectsTraced += C.ObjectsTraced;
      TraceSteals += C.TraceSteals;
      TraceOffloads += C.TraceOffloads;
      TraceSegmentsAcquired += C.TraceSegmentsAcquired;
      TraceTermScanNanos += C.TraceTermScanNanos;
      CycleAborts += C.Aborted ? 1 : 0;
      DegradedCycles += C.Degraded ? 1 : 0;
      ForcedMutators += C.ForcedMutators;
    }
    GcActiveNanos += Stats.GcActiveNanos;
    if (!Stats.Cycles.empty()) {
      const CycleStats &Last = Stats.Cycles.back();
      LiveBytesAfterLastCycle = Last.LiveBytesAfter;
      DirtyCardsAtLastCycleStart = Last.DirtyCardsAtStart;
    }
  }

  /// Folds \p Other — the snapshot of an independent runtime running a
  /// simultaneous copy of the same workload — into this one.  Counters,
  /// cycle aggregates and histograms add; footprint gauges add (the copies
  /// coexist in memory); configuration gauges take the maximum.  Used by
  /// workload::runWorkload to make multi-copy results real aggregates
  /// instead of copy 0's view.  Note GcActiveNanos becomes the sum over
  /// copies, so percentActive against wall time can exceed 100 on a
  /// saturated machine — that is the honest reading.
  void merge(const MetricsSnapshot &Other) {
    for (unsigned I = 0; I < NumKinds; ++I) {
      Kinds[I].Count += Other.Kinds[I].Count;
      Kinds[I].TotalDurationNanos += Other.Kinds[I].TotalDurationNanos;
      Kinds[I].ObjectsFreed += Other.Kinds[I].ObjectsFreed;
      Kinds[I].BytesFreed += Other.Kinds[I].BytesFreed;
      Kinds[I].ObjectsTraced += Other.Kinds[I].ObjectsTraced;
    }
    GcActiveNanos += Other.GcActiveNanos;
    HeapBytes += Other.HeapBytes;
    LiveBytesAfterLastCycle += Other.LiveBytesAfterLastCycle;
    DirtyCardsAtLastCycleStart += Other.DirtyCardsAtLastCycleStart;
    EventsWritten += Other.EventsWritten;
    EventsDropped += Other.EventsDropped;
    AllocRefills += Other.AllocRefills;
    AllocRefillSteals += Other.AllocRefillSteals;
    AllocCarveFallbacks += Other.AllocCarveFallbacks;
    AllocShardContentions += Other.AllocShardContentions;
    TraceSteals += Other.TraceSteals;
    TraceOffloads += Other.TraceOffloads;
    TraceSegmentsAcquired += Other.TraceSegmentsAcquired;
    TraceTermScanNanos += Other.TraceTermScanNanos;
    TraceSegmentsAllocated += Other.TraceSegmentsAllocated;
    TraceSegmentsPooled += Other.TraceSegmentsPooled;
    CycleAborts += Other.CycleAborts;
    DegradedCycles += Other.DegradedCycles;
    ForcedMutators += Other.ForcedMutators;
    StallNanos.merge(Other.StallNanos);
    StwPauseNanos.merge(Other.StwPauseNanos);
    HandshakeNanos.merge(Other.HandshakeNanos);
    RequestNanos.merge(Other.RequestNanos);
  }
};

} // namespace gengc

#endif // GENGC_OBS_METRICS_H
