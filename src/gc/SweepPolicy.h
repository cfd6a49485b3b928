//===- gc/SweepPolicy.h - Unified sweep policy ------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep configuration shared by the collectors, the Sweeper and the
/// lazy-sweep engine.  Collectors used to hand SweepMode + OldestAge to
/// sweepParallel as loose arguments; SweepPlan bundles the whole reclamation
/// strategy into one validated object built in exactly one place (the
/// Collector constructor).
///
/// SweepPolicy selects *when* reclamation happens:
///
///  - Eager: the historical behavior — a Sweep phase at the end of the cycle
///    walks every allocated block and pushes freed cells to the central
///    lists before the cycle is reported complete.
///
///  - Lazy: the cycle ends with a PublishSweep phase that merely stamps each
///    size-class block *needs-sweep* under the current color-toggle epoch.
///    Mutators claim and sweep a published block inline when a cache refill
///    finds the central lists dry (allocation-interleaved sweep), and the
///    collector drains the residue at low priority while idle and at the
///    start of the next cycle — before the next color toggle, so every block
///    is swept under the epoch it was published with.  See DESIGN.md §15.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_SWEEPPOLICY_H
#define GENGC_GC_SWEEPPOLICY_H

#include <cstdint>

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

/// When reclamation happens relative to the collection cycle.
enum class SweepPolicy : uint8_t {
  Eager, ///< Sweep is a collector phase covering the whole heap.
  Lazy,  ///< Blocks are published needs-sweep; mutators sweep on demand.
};

const char *sweepPolicyName(SweepPolicy Policy);

/// The complete, validated reclamation strategy for one collector instance.
struct SweepPlan {
  SweepPolicy Policy = SweepPolicy::Eager;
  SweepMode Mode = SweepMode::NonGenerational;
  /// Tenure threshold for GenerationalAging (ignored otherwise).
  uint8_t OldestAge = 0;
};

} // namespace gengc

#endif // GENGC_GC_SWEEPPOLICY_H
