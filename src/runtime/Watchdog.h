//===- runtime/Watchdog.h - Handshake/cycle stall detection -----*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stall detection for the on-the-fly protocol.  The collector depends on
/// every mutator in one place, HandshakeDriver's wait loop — the soft
/// handshakes, the stop-the-world pause and the abort unwind all wait
/// through it.  A thread that stops calling cooperate() without declaring
/// itself blocked wedges that wait forever, and nothing in the paper's
/// protocol can tell "slow" from "stuck".  The watchdog bounds the wait
/// with a configurable deadline under every policy; on expiry it snapshots
/// per-mutator diagnostics (posted vs. adopted status, blocked flag, time
/// since the last handshake response) and applies a policy: log the report,
/// hand it to an embedder callback, or abort.  A second, independent
/// deadline covers the whole collection cycle, catching stalls inside the
/// phases themselves.
///
/// Under Log/Callback/Abort, detection never unwedges the protocol — a
/// stuck mutator stays stuck and the wait continues after the report — but
/// it converts a silent hang into an actionable diagnosis.  The Escalate
/// policy goes further and drives a deterministic recovery ladder: the
/// report re-fires on a capped-exponential schedule, then the lagging
/// mutators' handshake responses are completed on their behalf, the
/// on-the-fly cycle is aborted and unwound (Collector::abortCycle), the
/// next cycles run as a cooperating stop-the-world fallback, and on-the-fly
/// collection resumes once a degraded cycle sees every mutator park
/// voluntarily again.  DESIGN.md §19 has the full failure-mode matrix.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_WATCHDOG_H
#define GENGC_RUNTIME_WATCHDOG_H

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/CollectorState.h"

namespace gengc {

/// Returns a printable name for \p Status (diagnostics).
const char *handshakeStatusName(HandshakeStatus Status);

/// What the watchdog does when a deadline expires.
enum class WatchdogPolicy : uint8_t {
  /// Print the stall report to stderr.
  Log = 0,
  /// Invoke WatchdogConfig::OnStall with the report (no stderr traffic).
  Callback,
  /// Print the report and abort the process — for deployments where a
  /// wedged collector is worse than a dead one.
  Abort,
  /// Recover instead of report-and-hope: re-fire on a capped backoff
  /// schedule, then force-complete the laggards' handshakes, abort the
  /// cycle, and degrade to cooperating-STW collection until handshakes
  /// succeed again.  Reports go to OnStall when installed, stderr
  /// otherwise.  Requires DeadlineNanos != 0.
  Escalate,
};

/// Point-in-time diagnosis of one registered mutator, taken while a stall
/// report is assembled.  All fields are racy snapshots of live state.
struct MutatorDiag {
  /// The handshake status this mutator has adopted.
  HandshakeStatus Adopted = HandshakeStatus::Async;
  /// Whether the thread has declared itself blocked (the collector responds
  /// on its behalf, so a blocked thread cannot cause a stall).
  bool Blocked = false;
  /// nowNanos() of this thread's most recent handshake response (adoption,
  /// enterBlocked or exitBlocked); 0 if it has never responded.
  uint64_t LastResponseNanos = 0;
  /// Nanoseconds between LastResponseNanos and the report's NowNanos —
  /// the "how long has this thread been silent" number, precomputed so
  /// OnStall handlers need no clock math.  UINT64_MAX if the thread has
  /// never responded.
  uint64_t SinceResponseNanos = 0;
  /// Objects this mutator has allocated so far (helps tell an idle thread
  /// from a hot one in the dump).
  uint64_t AllocatedObjects = 0;
};

/// Everything the watchdog knows when a deadline expires.
struct StallReport {
  /// What stalled: "handshake", "cycle" or "stop-the-world".
  const char *What = "handshake";
  /// The status the collector had posted when the watchdog fired.
  HandshakeStatus Posted = HandshakeStatus::Async;
  /// Printable name of Posted (embedder convenience; always non-null).
  const char *PostedName = "async";
  /// 1-based index of this fire within the current wait: 1 on the first
  /// deadline expiry, counting up as the re-fire schedule (capped
  /// exponential, see WatchdogConfig::RefireCapNanos) keeps firing on a
  /// still-stalled wait.  Always 1 for cycle-deadline reports.
  uint64_t Escalation = 1;
  /// How long the collector had been waiting, in nanoseconds.
  uint64_t WaitedNanos = 0;
  /// nowNanos() when the report was assembled (compare against each
  /// mutator's LastResponseNanos).
  uint64_t NowNanos = 0;
  /// One diagnosis per registered mutator, registry order.
  std::vector<MutatorDiag> Mutators;
};

/// Static watchdog configuration (part of CollectorConfig).
struct WatchdogConfig {
  /// Deadline for one wait for the mutators (a handshake, a world stop or
  /// the abort unwind), in nanoseconds; 0 disables the wait watchdog.  A
  /// wait that stays stalled past the first fire
  /// re-fires on a capped-exponential schedule (gaps double from
  /// DeadlineNanos up to RefireCapNanos), with StallReport::Escalation
  /// counting the fires.
  uint64_t DeadlineNanos = 0;
  /// Saturation point of the re-fire schedule, in nanoseconds; 0 means
  /// 8 x DeadlineNanos.
  uint64_t RefireCapNanos = 0;
  /// Escalate only: after this many fires of one wait, the ladder stops
  /// reporting and acts (force-complete laggards, abort the cycle).  The
  /// earlier fires are report-only, giving slow-but-alive mutators
  /// EscalateAfterFires chances before any state is touched.
  unsigned EscalateAfterFires = 3;
  /// Deadline for one whole collection cycle, in nanoseconds; 0 disables.
  /// Checked when the cycle completes; a wedged mutator surfaces earlier,
  /// through the wait deadline above, in every kind of cycle.
  uint64_t CycleDeadlineNanos = 0;
  /// What to do on expiry.
  WatchdogPolicy Policy = WatchdogPolicy::Log;
  /// The embedder callback for WatchdogPolicy::Callback.  Runs on the
  /// waiting (collector) thread; must not block on the GC or allocate
  /// through a registered mutator.
  std::function<void(const StallReport &)> OnStall;
};

/// Prints \p Report to stderr, one line per mutator.
void dumpStallReport(const StallReport &Report);

} // namespace gengc

#endif // GENGC_RUNTIME_WATCHDOG_H
