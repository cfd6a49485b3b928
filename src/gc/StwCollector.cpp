//===- gc/StwCollector.cpp - Stop-the-world comparator ----------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/StwCollector.h"

using namespace gengc;

StwCollector::StwCollector(Heap &H, CollectorState &S,
                           MutatorRegistry &Registry, GlobalRoots &Roots,
                           const CollectorConfig &Config)
    : Collector(H, S, Registry, Roots, Config) {
  GENGC_ASSERT(!Config.Aging, "the STW comparator has no aging mechanism");
  GENGC_ASSERT(!Config.Trigger.Generational,
               "the STW comparator collects the whole heap");
  // No concurrent marking ever happens, so mutators run the cheapest
  // barrier (which is inert while the world is stopped anyway).
  State.Barrier.store(BarrierKind::NonGenerational,
                      std::memory_order_release);
  initSweepPlan(SweepMode::NonGenerational);
}

CycleStats StwCollector::runCycle(CycleRequest Kind) {
  (void)Kind; // Always the whole heap.
  return stopTheWorldCycle();
}
