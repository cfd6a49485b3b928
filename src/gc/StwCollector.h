//===- gc/StwCollector.h - Stop-the-world comparator ------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic stop-the-world mark-and-sweep collector, as a comparator for
/// the paper's motivation: "it is not desirable to stop the program and
/// perform the collection … as this leads both to long pause times and
/// poor processor utilization" (Section 1).  It is NOT part of the paper's
/// evaluation; the ablation bench `ablation_pauses` uses it to demonstrate
/// what the on-the-fly design buys — every mutator records its
/// collector-induced stalls (Mutator::pauseStats), and under this
/// collector the maximum stall equals a whole collection, while the
/// on-the-fly collectors' stalls are zero (modulo allocation throttling).
///
/// Protocol (Collector::stopTheWorldCycle, shared with the on-the-fly
/// collectors' degraded fallback): raise StopWorld; each mutator parks at
/// its next cooperate(), blocked mutators are accounted for by the
/// collector; once everyone is stopped, toggle the colors; bump the stop
/// epoch so every stopped thread re-shades its roots under the new colors
/// (the collector shades for blocked ones); trace and sweep with the world
/// stopped; lower StopWorld.  Toggling only after the stop means nothing a
/// still-running thread allocates carries the color the trace treats as
/// done.  It reuses the same trace and sweep engines and the Remark 5.1
/// color-toggle machinery as the DLG baseline, so the comparison isolates
/// concurrency itself.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_STWCOLLECTOR_H
#define GENGC_GC_STWCOLLECTOR_H

#include "gc/Collector.h"

namespace gengc {

/// Stop-the-world mark-sweep.  Every cycle collects the whole heap.
class StwCollector : public Collector {
public:
  StwCollector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
               GlobalRoots &Roots, const CollectorConfig &Config);

protected:
  CycleStats runCycle(CycleRequest Kind) override;
};

} // namespace gengc

#endif // GENGC_GC_STWCOLLECTOR_H
