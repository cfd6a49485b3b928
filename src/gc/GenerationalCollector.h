//===- gc/GenerationalCollector.h - The paper's collector -------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generational on-the-fly collector — the paper's contribution.
///
/// Simple promotion (Sections 3-5, Figures 1-3): logical generations with
/// black doubling as "old"; partial collections trace only the young
/// objects, rooting additionally at old objects on dirty cards; the yellow
/// color keeps objects created during a cycle young; the color toggle makes
/// yellow/white swap roles each cycle.  Cycle order: ClearCards *before*
/// the color toggle, card marking by mutators only during async.
///
/// Aging (Section 6, Figures 4-6): a side age table with a tenuring
/// threshold; cycle order flips (toggle before ClearCards); card marks
/// survive collections and are cleared with the three-step race-free
/// protocol of Section 7.2 (clear, scan, re-mark if a young referent
/// remains).
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_GENERATIONALCOLLECTOR_H
#define GENGC_GC_GENERATIONALCOLLECTOR_H

#include "gc/Collector.h"

namespace gengc {

/// The generational collector, in simple-promotion or aging mode.  It runs
/// the base cycle; its generations live in the hooks below.
class GenerationalCollector : public Collector {
public:
  GenerationalCollector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
                        GlobalRoots &Roots, const CollectorConfig &Config);

protected:
  /// Both generational variants trace with Black (promoted/old objects), so
  /// the verifier's post-trace check keys on Black, not the allocation
  /// color.
  Color tracedBlackColor() const override { return Color::Black; }

  /// Abort unwind (DESIGN.md §19): unlike the base version, the old
  /// generation stays black — gray objects are promoted (re-grayed old
  /// objects go back where they were; a mid-trace young object tenures
  /// early, under aging with its age bumped to the threshold so the
  /// black-implies-old invariant holds), everything else non-blue returns
  /// to the allocation color.  Dead promotions are floating garbage until
  /// the forced-Full successor cycle sweeps them.
  void abortRecolor() override;

  /// InitFullCollection, run before the color toggle of every Full cycle
  /// (the degraded fallback's stopped-world cycle included, which makes it
  /// a Full generational cycle with a Black trace): records the dirty
  /// cards at start and recolors black/gray objects to the (pre-toggle)
  /// allocation color.  Simple promotion (Figure 3) also clears every card
  /// mark or remembered-set entry; under aging (Figure 6) dirty cards
  /// survive, they stay relevant for the following partial collections.
  void initFullCollection(CycleStats &Cycle) override;

  /// ClearCards of a partial cycle: clearCardsAging under aging,
  /// drainRememberedSet with remembered sets, clearCardsSimple otherwise.
  void clearCards(CycleStats &Cycle) override;

private:
  /// Recolors every black or gray object to the current allocation color.
  void recolorTracedToAllocation();

  /// Figure 3 ClearCards: clear each dirty card and shade the black (old)
  /// objects on it gray, so the trace scans them for young sons.  Runs
  /// before the toggle; no mutator can be marking cards concurrently
  /// (they are all at sync1/sync2, where the simple barrier does not mark).
  /// Dirty cards are found through the two-level summary scan over
  /// allocated block ranges (linear card walk when CardSummaryScan is
  /// off), sharded across the worker pool's lanes.
  void clearCardsSimple(CycleStats &Cycle);

  /// Remembered-set analogue of clearCardsSimple: drain the recorded
  /// objects, clear their membership flags, and re-gray the black (old)
  /// ones.  Same cycle position and the same no-concurrent-recording
  /// argument (recording happens only during async).
  void drainRememberedSet(CycleStats &Cycle);

  /// Figure 6 ClearCards with the Section 7.2 three-step protocol: clear
  /// the mark, scan old objects on the card shading their sons, and re-mark
  /// the card if any son is still young.  Runs after the toggle, racing
  /// benignly with mutator card marking — the summary level runs the same
  /// three-step protocol per 64-card chunk (see CardTable).  Sharded by
  /// dirty chunk (card-index ranges on the linear fallback); the per-card
  /// protocol is untouched by the sharding.
  void clearCardsAging(CycleStats &Cycle);
};

} // namespace gengc

#endif // GENGC_GC_GENERATIONALCOLLECTOR_H
