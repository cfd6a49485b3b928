//===- obs/ObsRegistry.h - Ring and metric registry -------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-runtime hub of the observability subsystem.  It owns:
///
///  - the event rings: one per GC worker lane (created eagerly, lane 0 is
///    the collector thread) and one per mutator (created at attach).  Rings
///    are only created when ObsConfig::Tracing is on; emit sites hold a
///    plain EventRing* that is null otherwise, so the traced-off hot path
///    is a single pointer test;
///  - the always-on latency histograms (allocation stalls, stop-the-world
///    pauses, handshake response latency);
///  - drop accounting across all rings.
///
/// Rings are never destroyed before the registry: a detaching mutator
/// leaves its ring behind (already full of its history) and the aggregator
/// reads it like any other.  Ring registration takes a mutex; everything
/// on emit paths is lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_OBS_OBSREGISTRY_H
#define GENGC_OBS_OBSREGISTRY_H

#include <memory>
#include <mutex>
#include <vector>

#include "obs/EventRing.h"
#include "obs/Histogram.h"

namespace gengc {

/// Owns every ring and histogram of one runtime.
class ObsRegistry {
public:
  /// Creates the registry; with Config.Tracing on, eagerly creates
  /// \p GcLanes lane rings (so collector phases never take the
  /// registration lock).
  ObsRegistry(const ObsConfig &Config, unsigned GcLanes);

  ObsRegistry(const ObsRegistry &) = delete;
  ObsRegistry &operator=(const ObsRegistry &) = delete;

  const ObsConfig &config() const { return Config; }
  bool tracing() const { return Config.Tracing; }

  /// The ring of GC worker lane \p Lane (lane 0 doubles as the collector
  /// thread's cycle/phase/handshake ring).  Null with tracing off.
  EventRing *laneRing(unsigned Lane) {
    return Config.Tracing ? LaneRings[Lane].get() : nullptr;
  }

  /// Creates and returns the ring for a newly attached mutator; null with
  /// tracing off.  Thread-safe.
  EventRing *addMutatorRing();

  //===-- Always-on histograms --------------------------------------------===
  LogHistogram &stallHistogram() { return Stalls; }
  LogHistogram &stwPauseHistogram() { return StwPauses; }
  LogHistogram &handshakeHistogram() { return Handshakes; }
  /// End-to-end request latency reported by server-shaped workloads
  /// (workload/Scenario.h); empty unless the embedder records into it.
  LogHistogram &requestHistogram() { return Requests; }
  const LogHistogram &stallHistogram() const { return Stalls; }
  const LogHistogram &stwPauseHistogram() const { return StwPauses; }
  const LogHistogram &handshakeHistogram() const { return Handshakes; }
  const LogHistogram &requestHistogram() const { return Requests; }

  //===-- Aggregation -----------------------------------------------------===
  /// Calls \p Fn(const EventRing &) for every ring (lanes first, then
  /// mutators in attach order).  Takes the registration lock; safe
  /// concurrently with emitters.
  template <typename Fn> void forEachRing(Fn &&Body) const {
    std::scoped_lock Locked(Mutex);
    for (const auto &Ring : LaneRings)
      Body(const_cast<const EventRing &>(*Ring));
    for (const auto &Ring : MutatorRings)
      Body(const_cast<const EventRing &>(*Ring));
  }

  /// Sum of events written / dropped over all rings.
  uint64_t eventsWritten() const;
  uint64_t eventsDropped() const;

private:
  ObsConfig Config;

  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<EventRing>> LaneRings;
  std::vector<std::unique_ptr<EventRing>> MutatorRings;

  LogHistogram Stalls;
  LogHistogram StwPauses;
  LogHistogram Handshakes;
  LogHistogram Requests;
};

} // namespace gengc

#endif // GENGC_OBS_OBSREGISTRY_H
