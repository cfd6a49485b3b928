//===- runtime/Handshake.h - The soft handshake protocol --------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector side of the DLG handshake: postHandshake publishes a new
/// collector status, waitHandshake spins until every registered mutator has
/// adopted it (responding on behalf of blocked threads).  Like the paper we
/// split the handshake into the two halves so the collector can do work —
/// clearing cards, toggling colors — between posting and waiting
/// (Section 7: "we separate the handshake into two parts, postHandshake and
/// waitHandshake, instead of using a second collector thread").
///
/// HandshakeDriver is the only code that waits for mutators.  The
/// stop-the-world pause (the STW comparator and the degraded fallback,
/// DESIGN.md §19) and the abort unwind's return to Async wait through the
/// same loop, so every wait shares one poll cadence, one watchdog re-fire
/// schedule and one escalation rule.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_HANDSHAKE_H
#define GENGC_RUNTIME_HANDSHAKE_H

#include <vector>

#include "obs/EventRing.h"
#include "runtime/CollectorState.h"
#include "runtime/MutatorRegistry.h"
#include "runtime/Watchdog.h"

namespace gengc {

/// Collector-side handshake driver.
class HandshakeDriver {
public:
  HandshakeDriver(CollectorState &S, MutatorRegistry &Registry)
      : State(S), Registry(Registry) {}

  /// Routes HandshakeReq events to \p Ring (the collector's event ring;
  /// null disables emission).  Called once at collector construction.
  void setObsRing(EventRing *Ring) { Obs = Ring; }

  /// Installs the stall watchdog (null disables it).  Called once at
  /// collector construction; the config must outlive the driver.
  void setWatchdog(const WatchdogConfig *Config) { Watchdog = Config; }

  /// Publishes \p Status as the collector status (postHandshake).
  void post(HandshakeStatus Status);

  /// Waits until every mutator matches the posted status (waitHandshake),
  /// responding for blocked ones.  Returns false only under
  /// WatchdogPolicy::Escalate, once the wait reached EscalateAfterFires
  /// fires and force-adopted the laggards' responses (Mutator::forceAdopt:
  /// WITHOUT the root shades a real response performs): the caller must
  /// abort the cycle, whose trace can no longer be trusted.
  bool wait();

  /// post + wait.
  bool handshake(HandshakeStatus Status) {
    post(Status);
    return wait();
  }

  /// Stops the world and waits until every mutator is stopped: parked for
  /// this pause's stop epoch, blocked, or listed in \p Forced.  The first
  /// call of a pause bumps the epoch and raises StopWorld; a later call
  /// (world still stopped) waits only for threads that attached since.
  /// With \p ShadeRoots, shades every stopped thread's roots once
  /// (Mutator::shadeRootsForStw).  Under WatchdogPolicy::Escalate, the
  /// EscalateAfterFires-th fire appends the still-running threads' ids to
  /// \p Forced (the quiet-thread assumption, DESIGN.md §19); an empty
  /// \p Forced after the pause means every thread stopped on its own.
  void stopWorld(std::vector<uint64_t> &Forced, bool ShadeRoots);

  /// Ends the pause: lowers StopWorld, and every parked mutator resumes.
  void resumeWorld();

  /// Assembles a StallReport (snapshotting every registered mutator) and
  /// applies the watchdog policy.  Public so the collector can report
  /// whole-cycle deadline overruns through the same machinery; no-op when
  /// no watchdog is installed.  \p Escalation is the 1-based fire index
  /// within the stalled wait.
  void fireStall(const char *What, uint64_t WaitedNanos,
                 uint64_t Escalation = 1);

  /// Fire count of the most recent wait that forced (telemetry for the
  /// abort path; collector-thread only).
  uint64_t lastEscalation() const { return LastEscalation; }

  /// Mutators the most recent wait forced; 0 if it completed on its own.
  uint64_t lastForced() const { return LastForced; }

private:
  /// The one wait loop: polls \p Lagging() until it reports no laggard —
  /// 64 yields, then 50 µs sleeps — firing the watchdog as \p What on its
  /// capped-exponential schedule.  Under Escalate, the EscalateAfterFires-th
  /// fire calls \p Force() (which returns how many it forced) and returns
  /// false instead of waiting on.
  template <typename LaggingFn, typename ForceFn>
  bool waitFor(const char *What, LaggingFn Lagging, ForceFn Force);

  CollectorState &State;
  MutatorRegistry &Registry;
  EventRing *Obs = nullptr;
  const WatchdogConfig *Watchdog = nullptr;
  uint64_t LastEscalation = 0;
  uint64_t LastForced = 0;
};

} // namespace gengc

#endif // GENGC_RUNTIME_HANDSHAKE_H
