//===- runtime/Handshake.cpp - The soft handshake protocol -----------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/Handshake.h"

#include <algorithm>
#include <thread>

#include "runtime/Mutator.h"
#include "support/Assert.h"
#include "support/Backoff.h"
#include "support/Timer.h"

using namespace gengc;

void HandshakeDriver::post(HandshakeStatus Status) {
  // The timestamp rides ahead of the status store (see StatusPostNanos);
  // mutators subtract it from their adoption time for the handshake-latency
  // histogram.
  uint64_t Now = nowNanos();
  State.StatusPostNanos.store(Now, std::memory_order_relaxed);
  State.StatusC.store(Status, std::memory_order_seq_cst);
  if (Obs)
    Obs->instant(ObsEventKind::HandshakeReq, Now, uint64_t(Status));
}

template <typename LaggingFn, typename ForceFn>
bool HandshakeDriver::waitFor(const char *What, LaggingFn Lagging,
                              ForceFn Force) {
  LastForced = 0;
  uint64_t Deadline = Watchdog ? Watchdog->DeadlineNanos : 0;
  uint64_t Begin = Deadline ? nowNanos() : 0;
  uint64_t Fires = 0;
  // Re-fire schedule: first fire at the deadline, then gaps doubling up to
  // the cap — a wedged mutator produces a handful of escalating reports,
  // not one silent line followed by an unbounded hang, and never a flood
  // at poll frequency.
  uint64_t Cap = 0;
  if (Deadline) {
    Cap = Watchdog->RefireCapNanos ? Watchdog->RefireCapNanos : 8 * Deadline;
    if (Cap < Deadline)
      Cap = Deadline;
  }
  Backoff Refire(Deadline ? Deadline : 1, Cap ? Cap : 1);
  uint64_t NextFire = Deadline ? Refire.advance() : 0;
  // Mutators respond at their own pace; poll.  The paper's collector
  // behaves the same way ("the collector considers a handshake complete
  // after all mutators have responded").
  for (unsigned Spin = 0;; ++Spin) {
    if (Lagging() == 0)
      return true;
    if (Deadline) {
      uint64_t Waited = nowNanos() - Begin;
      if (Waited >= NextFire) {
        ++Fires;
        fireStall(What, Waited, Fires);
        if (Fires > 1 && Obs)
          Obs->instant(ObsEventKind::EscalationStep, nowNanos(),
                       uint64_t(EscalationAction::Refire), Fires);
        if (Watchdog->Policy == WatchdogPolicy::Escalate &&
            Fires >= std::max(1u, Watchdog->EscalateAfterFires)) {
          // End of the report-only rungs: act for the laggards and hand the
          // (now untrustworthy) cycle back to the collector.
          LastEscalation = Fires;
          LastForced = Force();
          if (Obs)
            Obs->instant(ObsEventKind::EscalationStep, nowNanos(),
                         uint64_t(EscalationAction::ForceAdopt), LastForced);
          return false;
        }
        NextFire = Waited + Refire.advance();
      }
    }
    if (Spin < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool HandshakeDriver::wait() {
  HandshakeStatus Status = State.StatusC.load(std::memory_order_relaxed);
  return waitFor(
      "handshake",
      [&] {
        size_t Lagging = 0;
        Registry.forEach([&](Mutator &M) {
          if (M.status() == Status)
            return;
          M.helpIfBlocked();
          if (M.status() != Status)
            ++Lagging;
        });
        return Lagging;
      },
      [&] {
        uint64_t Forced = 0;
        Registry.forEach([&](Mutator &M) {
          if (M.status() != Status) {
            M.forceAdopt();
            ++Forced;
          }
        });
        return Forced;
      });
}

void HandshakeDriver::stopWorld(std::vector<uint64_t> &Forced,
                                bool ShadeRoots) {
  // One stop epoch per pause.  Stopped threads cannot leave the park (or
  // the blocked state) without parking again while StopWorld stays raised,
  // so a later call of the same pause only waits for threads that attached
  // since.
  if (!State.StopWorld.load(std::memory_order_relaxed)) {
    State.StopEpoch.fetch_add(1, std::memory_order_acq_rel);
    State.StopWorld.store(true, std::memory_order_seq_cst);
  }
  uint64_t Epoch = State.StopEpoch.load(std::memory_order_relaxed);
  // A thread still asleep from the previous pause has not published this
  // epoch and is not trusted until it does.  The registry can change while
  // we wait: re-snapshot every pass.
  auto Stopped = [&](Mutator &M) {
    return std::find(Forced.begin(), Forced.end(), M.id()) != Forced.end() ||
           M.stoppedFor(Epoch);
  };
  std::vector<uint64_t> Shaded;
  auto Shade = [&](Mutator &M) {
    if (!ShadeRoots ||
        std::find(Shaded.begin(), Shaded.end(), M.id()) != Shaded.end())
      return;
    M.shadeRootsForStw();
    Shaded.push_back(M.id());
  };
  waitFor(
      "stop-the-world",
      [&] {
        size_t Lagging = 0;
        Registry.forEach([&](Mutator &M) {
          if (Stopped(M))
            Shade(M);
          else
            ++Lagging;
        });
        return Lagging;
      },
      [&] {
        size_t Before = Forced.size();
        Registry.forEach([&](Mutator &M) {
          if (!Stopped(M))
            Forced.push_back(M.id());
          Shade(M);
        });
        return uint64_t(Forced.size() - Before);
      });
}

void HandshakeDriver::resumeWorld() {
  State.StopWorld.store(false, std::memory_order_seq_cst);
}

void HandshakeDriver::fireStall(const char *What, uint64_t WaitedNanos,
                                uint64_t Escalation) {
  if (!Watchdog)
    return;
  StallReport Report;
  Report.What = What;
  Report.Posted = State.StatusC.load(std::memory_order_relaxed);
  Report.PostedName = handshakeStatusName(Report.Posted);
  Report.WaitedNanos = WaitedNanos;
  Report.NowNanos = nowNanos();
  Report.Escalation = Escalation;
  // Snapshot every registered mutator.  forEach holds the registry lock;
  // diag() reads only atomics plus the CoopMutex-free racy Blocked flag, so
  // the callback stays short and never blocks on a wedged thread.
  Registry.forEach(
      [&Report](Mutator &M) { Report.Mutators.push_back(M.diag()); });
  for (MutatorDiag &D : Report.Mutators)
    D.SinceResponseNanos =
        D.LastResponseNanos == 0 || D.LastResponseNanos > Report.NowNanos
            ? UINT64_MAX
            : Report.NowNanos - D.LastResponseNanos;

  State.WatchdogFires.fetch_add(1, std::memory_order_relaxed);
  if (Obs)
    Obs->instant(ObsEventKind::WatchdogFire, Report.NowNanos,
                 uint64_t(Report.Posted), WaitedNanos);

  switch (Watchdog->Policy) {
  case WatchdogPolicy::Log:
    dumpStallReport(Report);
    break;
  case WatchdogPolicy::Callback:
    if (Watchdog->OnStall)
      Watchdog->OnStall(Report);
    break;
  case WatchdogPolicy::Escalate:
    // The ladder's report channel; the escalation decisions themselves
    // live in wait() and the collector.
    if (Watchdog->OnStall)
      Watchdog->OnStall(Report);
    else
      dumpStallReport(Report);
    break;
  case WatchdogPolicy::Abort:
    dumpStallReport(Report);
    fatalError("watchdog deadline expired (policy abort)", __FILE__,
               __LINE__);
  }
}
