//===- gc/Sweeper.h - Concurrent sweep --------------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep stage (Figures 2 and 5).  Sweep reclaims every object with the
/// clear color; what happens to survivors depends on the mode:
///
///  - NonGenerational: survivors keep the allocation color (the black/white
///    toggle of Remark 5.1 means no recoloring at all).
///  - GenerationalSimple: black survivors stay black — that *is* the
///    promotion to the old generation (Section 3); allocation-colored
///    (yellow) objects stay young, untouched thanks to the toggle.
///  - GenerationalAging: Figure 5 — reachable objects younger than the
///    tenuring threshold are recolored to the allocation color and their
///    age is incremented; objects at the threshold stay black (old).
///
/// Freeing races with late mutator shading (a mutator that still perceives
/// the trace stage may shade a clear-colored object); both transitions go
/// through a CAS on the color byte, so exactly one side wins: either the
/// object is freed, or it floats gray into the next cycle.
///
/// Sweep is embarrassingly parallel in this non-moving big-bag-of-pages
/// design: blocks are independent, so sweepParallel partitions the heap by
/// block-index ranges across GcWorkerPool lanes.  Each lane drives its own
/// Sweeper engine whose freed cells accumulate into per-lane CellChain
/// batches, so Heap::pushFreeChain contention stays bounded by the batch
/// size at any lane count.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_SWEEPER_H
#define GENGC_GC_SWEEPER_H

#include <cstdint>
#include <vector>

#include "gc/WorkerPool.h"
#include "heap/Heap.h"
#include "obs/CycleStats.h"
#include "obs/ObsRegistry.h"
#include "runtime/CollectorState.h"

namespace gengc {

/// What the sweep does with survivors — the paper's three collector
/// configurations (Sections 4, 5 and 6).
enum class SweepMode : uint8_t {
  /// DLG baseline: survivors keep their color; no generations.
  NonGenerational,
  /// Simple promotion: survivors stay black (tenured); no age tracking.
  GenerationalSimple,
  /// Aging (Section 6): young survivors are recolored to the allocation
  /// color and age until they reach OldestAge, then tenure.
  GenerationalAging,
};

/// A collector's survivor semantics, built once in the Collector
/// constructor and handed to every sweep it runs.
struct SweepPlan {
  SweepMode Mode = SweepMode::NonGenerational;
  /// Tenure threshold for GenerationalAging (ignored otherwise).
  uint8_t OldestAge = 0;
};

/// One sweep engine per worker: each lane of sweepParallel drives its own
/// Sweeper over the block ranges it claims.
class Sweeper {
public:
  struct Result {
    uint64_t ObjectsFreed = 0;
    uint64_t BytesFreed = 0;
    uint64_t LiveObjectsAfter = 0;
    uint64_t LiveBytesAfter = 0;
    /// Bytes of survivors carrying the allocation color — objects created
    /// during this cycle.  The generational collectors subtract this from
    /// LiveBytesAfter to estimate the true live set for triggering.
    uint64_t AllocColoredBytes = 0;

    /// Accumulates \p Other into this result (lane merging).
    void merge(const Result &Other) {
      ObjectsFreed += Other.ObjectsFreed;
      BytesFreed += Other.BytesFreed;
      LiveObjectsAfter += Other.LiveObjectsAfter;
      LiveBytesAfter += Other.LiveBytesAfter;
      AllocColoredBytes += Other.AllocColoredBytes;
    }

    /// Adds the freed and surviving counts into \p Cycle's statistics
    /// (AllocColoredBytes feeds only the live estimate; see sweepPhase).
    void addTo(CycleStats &Cycle) const {
      Cycle.ObjectsFreed += ObjectsFreed;
      Cycle.BytesFreed += BytesFreed;
      Cycle.LiveObjectsAfter += LiveObjectsAfter;
      Cycle.LiveBytesAfter += LiveBytesAfter;
    }
  };

  Sweeper(Heap &H, CollectorState &S) : H(H), State(S) {}

  /// Per-lane API: sweeps blocks [\p BlockBegin, \p BlockEnd), accumulating
  /// into \p R and this engine's pending free chains.  Call flushChains()
  /// once after the lane's last range.
  void sweepBlockRange(SweepMode Mode, uint8_t OldestAge, size_t BlockBegin,
                       size_t BlockEnd, Result &R);

  /// Returns all pending chains to the heap's central lists.
  void flushChains();

private:
  /// Handles one live (non-clear, non-blue) object of color \p C.
  void processSurvivor(ObjectRef Ref, Color C, uint32_t StorageBytes,
                       SweepMode Mode, uint8_t OldestAge, Color AllocColor,
                       Result &R);

  Heap &H;
  CollectorState &State;
  /// Freed cells pending return to the central lists, one chain per size
  /// class; pushed whenever a chain reaches the heap's ChainCells.
  Heap::CellChain Chains[NumSizeClasses];
};

/// A parallel sweep's merged result plus per-lane accounting.
struct ParallelSweepResult {
  Sweeper::Result Total;
  /// Wall time each lane spent sweeping, indexed by lane.
  std::vector<uint64_t> WorkerNanos;
};

/// Sweeps the whole heap across the pool's lanes: block-index ranges are
/// claimed dynamically, each lane sweeping with a private engine.  With one
/// lane this degenerates to the exact sequential sweep (ascending block
/// order, identical chain batching), which the determinism tests rely on.
/// With \p Obs set and tracing enabled, each lane emits one SweepSpan for
/// its share plus a SweepChunk span per claimed block range.  The plan's
/// Mode and OldestAge select the survivor semantics.
ParallelSweepResult sweepParallel(Heap &H, CollectorState &S,
                                  GcWorkerPool &Pool, const SweepPlan &Plan,
                                  ObsRegistry *Obs = nullptr);

} // namespace gengc

#endif // GENGC_GC_SWEEPER_H
