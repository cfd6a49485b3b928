//===- gc/HeapVerifier.h - Heap-invariant verifier --------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-demand checker of the invariants the collector's correctness
/// arguments rest on: block-table coherence, free-list integrity, color
/// legality, the card/summary containment invariant, and — after a full
/// trace — the tri-color invariant itself (no traced-black object holds a
/// reference to a clear-colored one).  A violation of any of these is a
/// collector bug; the verifier turns "the workload crashed three cycles
/// later" into "this invariant broke at this phase boundary".
///
/// The verifier runs on the collector thread at phase boundaries (gated by
/// CollectorConfig::VerifyHeap or the GENGC_VERIFY_HEAP environment
/// variable) and from tests.  It is heap-order aware but collector-agnostic:
/// which color counts as "traced black" and which scopes are sound at which
/// boundary is the caller's knowledge (see Collector::verifyHook).
///
/// Concurrency: the checks run against a live heap with running mutators.
/// Structural checks freeze the block table (Heap::withBlocksLocked) or a
/// central free list (Heap::forEachFreeChain) while reading it; the color,
/// card and reachability checks read racily and re-confirm any apparent
/// violation after a pause, so the transient windows the protocol permits
/// (a card byte stored before its summary byte, a referent stored before
/// the barrier shades it) are never reported.  Real violations are stable
/// and survive confirmation.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_HEAPVERIFIER_H
#define GENGC_GC_HEAPVERIFIER_H

#include <string>
#include <vector>

#include "heap/Heap.h"
#include "runtime/CollectorState.h"

namespace gengc {

/// Which invariant set to check — keyed to where in the cycle the verifier
/// runs, because some invariants only hold at specific boundaries.
enum class VerifyScope : uint8_t {
  /// Invariants that hold at every phase boundary: block-table coherence,
  /// free-list integrity, color legality, card implies summary.
  Concurrent = 0,
  /// Concurrent plus the tri-color invariant: no object of the traced-black
  /// color references a clear-colored object.  Sound only after the trace
  /// of a FULL cycle (partial cycles legitimately leave dead black parents
  /// pointing at dead young objects).
  PostTraceFull,
  /// Concurrent plus "no object cell carries the clear color" — sweep just
  /// converted every clear cell to Blue, allocation uses the allocation
  /// color, and no shading happens during sweep.
  CycleEnd,
};

/// Number of distinct VerifyScope values (array sizing).
constexpr unsigned NumVerifyScopes = unsigned(VerifyScope::CycleEnd) + 1;

/// Returns a printable name for \p Scope.
const char *verifyScopeName(VerifyScope Scope);

/// The heap-invariant checker.  Stateless between runs; cheap to construct.
class HeapVerifier {
public:
  HeapVerifier(const Heap &H, const CollectorState &State)
      : H(H), State(State) {}

  /// The outcome of one verification pass.
  struct Report {
    /// Individual assertions evaluated (VerifyPass's Arg1).
    uint64_t ChecksRun = 0;
    /// Human-readable descriptions of confirmed violations; capped at
    /// MaxViolations so a systemic corruption cannot OOM the reporter.
    std::vector<std::string> Violations;
    /// Violations found beyond the cap.
    uint64_t Suppressed = 0;

    bool clean() const { return Violations.empty() && Suppressed == 0; }
  };

  /// Most violations recorded verbatim in one report.
  static constexpr size_t MaxViolations = 32;

  /// Runs every check of \p Scope.  \p TracedBlack is the color that marks
  /// "traced by this cycle" for the PostTraceFull reachability check (the
  /// generational full cycle traces with Color::Black; the DLG and STW
  /// collectors trace with the allocation color).
  Report run(VerifyScope Scope, Color TracedBlack = Color::Black) const;

private:
  void addViolation(Report &R, std::string Message) const;

  void verifyBlockTable(Report &R) const;
  void verifyFreeLists(Report &R) const;
  void verifyColors(Report &R, VerifyScope Scope) const;
  void verifyCardSummaries(Report &R) const;
  void verifyNoClearRefsFromTraced(Report &R, Color TracedBlack) const;

  const Heap &H;
  const CollectorState &State;
};

} // namespace gengc

#endif // GENGC_GC_HEAPVERIFIER_H
