//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable fault injection for the hardening tests.  The
/// runtime is sprinkled with *named sites* — points where a test can force
/// an allocation to fail, delay a handshake response, stall a GC worker
/// lane or slow down the card scan — so stall detection (the watchdog) and
/// the recoverable-OOM ladder can be exercised on demand instead of waiting
/// for a 32 MB heap to misbehave on its own.
///
/// Cost model: when nothing is armed, a site is one relaxed atomic load and
/// a branch (the header-inlined fast path below), so the instrumented
/// builds are the shipping builds — there is no "fault-injection build"
/// whose timings differ from production.  Arming is process-global and
/// meant for tests; it is synchronized, but the runtime paths that consult
/// sites never block on the injector's lock unless their site is armed.
///
/// Determinism: each armed site draws from its own Rng stream seeded at
/// arm() time, so a single-threaded caller hitting a site sees the same
/// fire/skip sequence for the same seed.  (Across racing threads the
/// interleaving of draws is scheduling-dependent, as any probabilistic
/// fault model must be.)
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SUPPORT_FAULTINJECTOR_H
#define GENGC_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>

namespace gengc {

/// The named fault sites wired into the runtime.
enum class FaultSite : uint8_t {
  /// Mutator::refillCache / allocateLarge: a firing makes one allocation
  /// attempt behave as if the heap were exhausted.
  AllocFail = 0,
  /// Mutator::cooperate: a firing delays the handshake response (the
  /// unresponsive-mutator scenario the watchdog exists for).
  HandshakeDelay,
  /// GcWorkerPool: a firing stalls a worker lane at job start.
  WorkerLaneStall,
  /// The generational card scan: a firing delays one summary-chunk open.
  CardScanDelay,
  /// Mutator::cooperate: a firing swallows the handshake response entirely
  /// — the mutator keeps running but never adopts the posted status on its
  /// own (the uncooperative-thread scenario WatchdogPolicy::Escalate
  /// exists for).  Unlike HandshakeDelay this costs no wall-clock sleep,
  /// so tests bound it with MaxHits instead of DelayNanos.
  ThreadStall,
  /// Collector trace-phase entry: a firing aborts the on-the-fly cycle
  /// before any object is traced (exercises Collector::abortCycle).
  TraceAbort,
  /// Collector sweep-phase entry: a firing aborts the cycle before any
  /// cell is reclaimed.
  SweepAbort,
};

/// Number of distinct fault sites (array sizing).
constexpr unsigned NumFaultSites = unsigned(FaultSite::SweepAbort) + 1;

/// Returns a printable name for \p Site.
const char *faultSiteName(FaultSite Site);

/// How an armed site behaves when consulted.
struct FaultConfig {
  /// Probability that a consultation fires, in [0, 1].
  double Probability = 1.0;
  /// Nanoseconds the firing thread sleeps inside fire() (delay sites).
  /// Zero makes fire() return without sleeping — the AllocFail site wants
  /// the verdict, not a delay.
  uint64_t DelayNanos = 0;
  /// Maximum number of firings before the site stops firing (it stays
  /// armed, so hit counting keeps working).  0 means unlimited.
  uint64_t MaxHits = 0;
};

/// Process-global fault-injection registry.  All members are static: the
/// runtime consults sites from deep inside allocation and handshake paths
/// where threading a pointer through every layer would distort the very
/// code the injector exists to test.
class FaultInjector {
public:
  /// Consults \p Site: returns true if the site is armed and fired (after
  /// sleeping the site's DelayNanos, if any).  The disabled path is one
  /// relaxed load and a branch.
  static bool fire(FaultSite Site) {
    uint32_t Mask = ArmedMask.load(std::memory_order_relaxed);
    if ((Mask & (1u << unsigned(Site))) == 0)
      return false;
    return fireSlow(Site);
  }

  /// Arms \p Site with \p Config, reseeding its Rng stream from \p Seed and
  /// resetting its hit count.
  static void arm(FaultSite Site, const FaultConfig &Config,
                  uint64_t Seed = 0x5eed);

  /// Disarms \p Site (its hit count remains readable).
  static void disarm(FaultSite Site);

  /// Disarms every site and clears all hit counts.  Tests call this in
  /// teardown so armed faults never leak across test cases.
  static void disarmAll();

  /// Number of times \p Site fired since it was last armed.
  static uint64_t hitCount(FaultSite Site);

private:
  static bool fireSlow(FaultSite Site);

  /// Bit i set = site i armed.  The only state the disabled fast path
  /// touches.
  static std::atomic<uint32_t> ArmedMask;
};

} // namespace gengc

#endif // GENGC_SUPPORT_FAULTINJECTOR_H
