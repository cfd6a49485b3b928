//===- obs/ObsRegistry.cpp - Ring and metric registry ---------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "obs/ObsRegistry.h"

using namespace gengc;

ObsRegistry::ObsRegistry(const ObsConfig &Config, unsigned GcLanes)
    : Config(Config) {
  if (!Config.Tracing)
    return;
  LaneRings.reserve(GcLanes);
  for (unsigned Lane = 0; Lane < GcLanes; ++Lane)
    LaneRings.push_back(std::make_unique<EventRing>(
        Lane == 0 ? ObsSource::Collector : ObsSource::GcLane, Lane,
        Config.RingEvents));
}

EventRing *ObsRegistry::addMutatorRing() {
  if (!Config.Tracing)
    return nullptr;
  std::scoped_lock Locked(Mutex);
  uint32_t Id = uint32_t(MutatorRings.size());
  MutatorRings.push_back(
      std::make_unique<EventRing>(ObsSource::Mutator, Id, Config.RingEvents));
  return MutatorRings.back().get();
}

uint64_t ObsRegistry::eventsWritten() const {
  uint64_t Sum = 0;
  forEachRing([&](const EventRing &Ring) { Sum += Ring.written(); });
  return Sum;
}

uint64_t ObsRegistry::eventsDropped() const {
  uint64_t Sum = 0;
  forEachRing([&](const EventRing &Ring) { Sum += Ring.dropped(); });
  return Sum;
}
