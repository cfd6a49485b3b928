//===- gc/LazySweep.h - Allocation-interleaved sweep ------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lazy-sweep engine (SweepPolicy::Lazy).  After a trace, the
/// collector's PublishSweep phase calls publish(): large runs are reclaimed
/// eagerly (they are rare and block-granular anyway), every size-class
/// block is stamped needs-sweep under the current color-toggle epoch, the
/// central free lists are drained into per-block stashes, and the blocks
/// are pushed onto per-class claim stacks.  From then on reclamation is
/// demand-driven:
///
///  - a mutator whose cache refill finds its class's central list empty
///    claims a block of that class (Heap::popFreeChains calls
///    sweepOneBlockFor through the Heap::LazySweeper hook) and sweeps it
///    inline — the sweep is the same per-cell CAS loop as the eager sweep,
///    so late mutator shading races freeing exactly as before;
///
///  - the collector drains the residue nobody claimed: a few blocks per
///    idle poll tick (sweepSome) so reclamation terminates on idle heaps,
///    and completely at the start of the next cycle (drainResidue) —
///    *before* that cycle's color toggle, which is what keeps every block
///    swept under the epoch it was published with.
///
/// Freed counts surface one cycle late: what mutators and the drip swept
/// since the previous publish is harvested by takeResults() in the next
/// cycle's SweepResidue phase.  See DESIGN.md §15 for the state machine.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_LAZYSWEEP_H
#define GENGC_GC_LAZYSWEEP_H

#include <mutex>

#include "gc/Sweeper.h"

namespace gengc {

class LazySweepEngine : public LazySweeper {
public:
  LazySweepEngine(Heap &H, CollectorState &S, const SweepPlan &Plan,
                  ObsRegistry *Obs)
      : H(H), State(S), Plan(Plan), Obs(Obs) {}

  /// What one publish pass did: how many size-class blocks went
  /// needs-sweep, plus the eager result over large runs.
  struct PublishResult {
    uint64_t BlocksPublished = 0;
    Sweeper::Result Large;
  };

  /// Collector side, PublishSweep phase.  Must run with no toggle between
  /// it and the drain that retires its blocks.
  PublishResult publish();

  /// Heap::LazySweeper: claims and sweeps one block of \p ClassIdx from a
  /// mutator's refill.
  bool sweepOneBlockFor(unsigned ClassIdx) override;

  /// Collector side, idle drip: sweeps up to \p MaxBlocks residue blocks
  /// (any class).  Returns how many were swept.
  uint64_t sweepSome(uint64_t MaxBlocks);

  /// Collector side, SweepResidue phase: claims and sweeps every remaining
  /// published block, then waits until no block is mid-sweep (a mutator may
  /// hold a claim), so the caller may toggle colors afterwards.  Returns
  /// the number of blocks this call swept.
  uint64_t drainResidue();

  /// Takes (and resets) the sweep results accumulated since the last take:
  /// every mutator claim, drip and drain since the previous publish.
  Sweeper::Result takeResults();

private:
  /// Sweeps already-claimed block \p BlockIdx and deposits its cells into
  /// its class's central list, honoring the markSwept-before-deposit
  /// protocol.
  void sweepClaimed(uint32_t BlockIdx, bool MutatorContext);

  /// Claims a residue block of any class; 0 when none remains.
  uint32_t claimAny();

  Heap &H;
  CollectorState &State;
  SweepPlan Plan;
  ObsRegistry *Obs;

  std::mutex ResultMutex;
  Sweeper::Result Accum;
};

} // namespace gengc

#endif // GENGC_GC_LAZYSWEEP_H
