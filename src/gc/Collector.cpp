//===- gc/Collector.cpp - Collector thread and cycle driver ----------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "gc/LazySweep.h"
#include "support/Backoff.h"
#include "support/Timer.h"

using namespace gengc;

Collector::Collector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
                     GlobalRoots &Roots, const CollectorConfig &Config,
                     bool StopsTheWorld)
    : Collector(H, S, Registry, Roots, Config, SweepMode::NonGenerational,
                StopsTheWorld) {
  GENGC_ASSERT(!Config.Aging,
               "the non-generational collectors have no aging mechanism");
}

Collector::Collector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
                     GlobalRoots &Roots, const CollectorConfig &Config,
                     SweepMode Mode, bool StopsTheWorld)
    : H(H), State(S), Registry(Registry), Roots(Roots), Config(Config),
      Obs(Config.Obs, std::max(1u, Config.GcThreads)),
      Handshakes(S, Registry), Pool(Config.GcThreads),
      TraceEngine(H, S, Pool),
      Trig(Config.Trigger, Mode != SweepMode::NonGenerational, H.heapBytes()),
      Plan{Config.Sweep, Mode, Config.OldestAge},
      StopsTheWorld(StopsTheWorld) {
  Handshakes.setObsRing(Obs.laneRing(0));
  // The watchdog pointer must outlive the driver; the member copy of the
  // config does, the constructor parameter may not.
  Handshakes.setWatchdog(&this->Config.Watchdog);
  TraceEngine.setObs(&Obs);
  TraceEngine.setPrefetchDepth(Config.PrefetchDepth);
  if (Config.VerifyHeap || std::getenv("GENGC_VERIFY_HEAP") != nullptr) {
    this->Config.VerifyHeap = true;
    Verifier = std::make_unique<HeapVerifier>(H, S);
  }
  // Allocation budget since the last completed cycle: the trigger fires
  // around YoungBytes of allocation, so allowing another half generation
  // before the cycle completes bounds occupancy carry-over at 1.5 young
  // generations — comfortably inside the trigger's 3-generation headroom
  // even when two consecutive cycles carry over (identical for both
  // collectors).  Under the generational barriers the budget holds before
  // the cycle starts too (CollectorState::allocationBudgetHolds), which
  // covers a collector thread that wakes late.
  State.ThrottleBytes.store(Config.Trigger.YoungBytes +
                                Config.Trigger.YoungBytes / 2,
                            std::memory_order_relaxed);
  // Card marking exists only for the generations (Figures 1 and 4).
  State.Barrier.store(Mode == SweepMode::GenerationalAging ? BarrierKind::Aging
                      : Mode == SweepMode::GenerationalSimple
                          ? BarrierKind::Simple
                          : BarrierKind::NonGenerational,
                      std::memory_order_release);
  if (lazySweep()) {
    LazyEngine = std::make_unique<LazySweepEngine>(H, State, Plan, &Obs);
    H.setLazySweeper(LazyEngine.get());
  }
}

Collector::~Collector() {
  stop();
  // The heap may outlive this collector (tests construct collectors against
  // a shared heap); never leave it pointing at a dead engine.
  if (LazyEngine)
    H.setLazySweeper(nullptr);
}

CyclePhase Collector::tracePhase() {
  return {GcPhase::Trace, &CycleStats::TraceNanos,
          [this](CycleStats &C) {
            if (abortPhaseEntry(FaultSite::TraceAbort, GcPhase::Trace))
              return;
            ParallelTracer::Result R =
                TraceEngine.trace(tracedBlackColor(), CollectorGrays);
            C.ObjectsTraced = R.ObjectsTraced;
            C.BytesTraced = R.BytesTraced;
            C.TraceSteals = R.Steals;
            C.TraceOffloads = R.Offloads;
            C.TraceSegmentsAcquired = R.SegmentsAcquired;
            C.TraceTermScanNanos = R.TermScanNanos;
            C.TraceWorkerNanos = std::move(R.WorkerNanos);
            // A lazy generational cycle has no eager sweep to compute the
            // live-after-minus-new estimate from; it falls back to bytes
            // traced, like the non-generational collectors.
            if (!generationalPlan() || lazySweep())
              C.LiveEstimateBytes = R.BytesTraced;
          }};
}

CyclePhase Collector::sweepPhase() {
  if (lazySweep())
    return {GcPhase::PublishSweep, &CycleStats::SweepNanos,
            [this](CycleStats &C) {
              if (abortPhaseEntry(FaultSite::SweepAbort, GcPhase::PublishSweep))
                return;
              LazySweepEngine::PublishResult P = LazyEngine->publish();
              C.LazyBlocksPublished = P.BlocksPublished;
              P.Large.addTo(C);
            }};
  return {GcPhase::Sweep, &CycleStats::SweepNanos,
          [this](CycleStats &C) {
            if (abortPhaseEntry(FaultSite::SweepAbort, GcPhase::Sweep))
              return;
            ParallelSweepResult R =
                sweepParallel(H, State, Pool, Plan, &Obs);
            R.Total.addTo(C);
            C.SweepWorkerNanos = std::move(R.WorkerNanos);
            if (generationalPlan())
              C.LiveEstimateBytes =
                  R.Total.LiveBytesAfter - R.Total.AllocColoredBytes;
          }};
}

CyclePhase Collector::residuePhase() {
  return {GcPhase::SweepResidue, &CycleStats::ResidueNanos,
          [this](CycleStats &C) {
            C.LazyBlocksResidueSwept = LazyEngine->drainResidue();
            // Harvest everything swept since the previous publish — the
            // residue just drained plus every mutator claim and idle drip
            // in between (one-cycle-lag attribution).
            LazyEngine->takeResults().addTo(C);
          }};
}

void Collector::start() {
  GENGC_ASSERT(!Running, "collector started twice");
  StopFlag.store(false, std::memory_order_relaxed);
  Thread = std::thread([this] { threadLoop(); });
  Running = true;
  State.CollectorRunning.store(true, std::memory_order_relaxed);
}

void Collector::stop() {
  if (!Running)
    return;
  // No triggered cycle starts once the thread sees StopFlag, so release
  // the mutators stalled between cycles first.
  State.CollectorRunning.store(false, std::memory_order_relaxed);
  {
    std::scoped_lock Locked(RequestMutex);
    StopFlag.store(true, std::memory_order_relaxed);
  }
  RequestCv.notify_all();
  Thread.join();
  Running = false;
}

void Collector::requestCycle(CycleRequest Kind) {
  GENGC_ASSERT(Kind != CycleRequest::None, "requested an empty cycle");
  {
    std::scoped_lock Locked(RequestMutex);
    // Full dominates Partial if both are pending.
    if (Pending == CycleRequest::None || Kind == CycleRequest::Full)
      Pending = Kind;
  }
  RequestCv.notify_all();
}

void Collector::collectSync(CycleRequest Kind) {
  GENGC_ASSERT(Running, "collectSync requires a started collector");
  uint64_t Before = completedCycles();
  requestCycle(Kind);
  std::unique_lock Locked(RequestMutex);
  DoneCv.wait(Locked, [&] { return completedCycles() > Before; });
}

void Collector::collectSyncCooperating(CycleRequest Kind, Mutator &M) {
  GENGC_ASSERT(Running, "collectSyncCooperating requires a started collector");
  uint64_t Before = completedCycles();
  requestCycle(Kind);
  // Backoff instead of a fixed period: cycles span microseconds (idle young
  // heap) to milliseconds (full trace), so a fixed sleep is wrong at one
  // end or the other.  Cooperate before every sleep — the cycle we wait for
  // cannot finish its handshakes otherwise.
  Backoff Back(/*InitialNanos=*/10 * 1000, /*CapNanos=*/200 * 1000);
  while (completedCycles() <= Before) {
    M.cooperate();
    Back.pause();
  }
}

void Collector::waitForMemory(Mutator &M) {
  MemoryWaits.fetch_add(1, std::memory_order_relaxed);
  collectSyncCooperating(CycleRequest::Full, M);
}

GcRunStats Collector::statsSnapshot() const {
  std::scoped_lock Locked(StatsMutex);
  return Stats;
}

void Collector::resetStats() {
  std::scoped_lock Locked(StatsMutex);
  Stats = GcRunStats();
}

void Collector::addObserver(GcObserver &Observer) {
  std::scoped_lock Locked(ObserverMutex);
  Observers.push_back(&Observer);
}

void Collector::removeObserver(GcObserver &Observer) {
  std::scoped_lock Locked(ObserverMutex);
  Observers.erase(std::remove(Observers.begin(), Observers.end(), &Observer),
                  Observers.end());
}

void Collector::notifyObservers(const CycleStats &Cycle,
                                uint64_t CycleIndex) {
  std::scoped_lock Locked(ObserverMutex);
  for (GcObserver *Observer : Observers)
    Observer->onGcCycleEnd(Cycle, CycleIndex);
}

void Collector::runVerifier(VerifyScope Scope) {
  if (!Verifier)
    return;
  HeapVerifier::Report R = Verifier->run(Scope, tracedBlackColor());
  if (!R.clean()) {
    std::fprintf(stderr,
                 "gengc heap verifier: %zu violation(s) at the %s boundary\n",
                 R.Violations.size() + size_t(R.Suppressed),
                 verifyScopeName(Scope));
    for (const std::string &V : R.Violations)
      std::fprintf(stderr, "  %s\n", V.c_str());
    if (R.Suppressed != 0)
      std::fprintf(stderr, "  ... and %llu more\n",
                   (unsigned long long)R.Suppressed);
    fatalError("heap invariant violated", __FILE__, __LINE__);
  }
  if (EventRing *Ring = Obs.laneRing(0))
    Ring->instant(ObsEventKind::VerifyPass, nowNanos(), uint64_t(Scope),
                  R.ChecksRun);
}

std::function<void(GcPhase)> Collector::verifyHook(bool FullCycle) {
  if (!Verifier)
    return {};
  return [this, FullCycle](GcPhase Phase) {
    // One scope per boundary, keyed to what is sound there (the hook runs
    // with the completed phase still published, so the write barrier still
    // behaves as in that phase — the transient-window arguments rely on
    // this).
    VerifyScope Scope = VerifyScope::Concurrent;
    if (Phase == GcPhase::Trace && FullCycle)
      Scope = VerifyScope::PostTraceFull;
    else if (Phase == GcPhase::Sweep)
      Scope = VerifyScope::CycleEnd;
    else if (Phase == GcPhase::SweepResidue)
      // Sound as a cycle-end boundary for the *previous* cycle: no toggle
      // has happened since its publish, and the drain just retired every
      // published block, so no reclaimable cell still carries the current
      // clear color.  (PublishSweep deliberately stays Concurrent — its
      // blocks are unswept by design.)
      Scope = VerifyScope::CycleEnd;
    runVerifier(Scope);
  };
}

void Collector::resetGrayCounters() {
  CollectorGrays.reset();
  Registry.forEach([](Mutator &M) { M.grayCounters().reset(); });
}

void Collector::sumGrayCounters(CycleStats &Stats) {
  uint64_t Objects = CollectorGrays.FromClear.load(std::memory_order_relaxed);
  uint64_t Bytes =
      CollectorGrays.FromClearBytes.load(std::memory_order_relaxed);
  Registry.forEach([&](Mutator &M) {
    Objects += M.grayCounters().FromClear.load(std::memory_order_relaxed);
    Bytes += M.grayCounters().FromClearBytes.load(std::memory_order_relaxed);
  });
  Stats.YoungSurvivors = Objects;
  Stats.YoungSurvivorBytes = Bytes;
}

//===----------------------------------------------------------------------===
// Cycle recovery (WatchdogPolicy::Escalate; DESIGN.md §19).
//===----------------------------------------------------------------------===

bool Collector::waitOrAbort() {
  if (Handshakes.wait())
    return true;
  AbortCycleFlag = true;
  EscalatedAbort = true;
  AbortEscalation = Handshakes.lastEscalation();
  AbortPhase = State.Phase.load(std::memory_order_relaxed);
  return false;
}

bool Collector::abortPhaseEntry(FaultSite Site, GcPhase Phase) {
  if (!AllowAbort)
    return false;
  if (AbortCycleFlag)
    return true;
  if (!FaultInjector::fire(Site))
    return false;
  AbortCycleFlag = true;
  EscalatedAbort = false;
  AbortPhase = Phase;
  AbortEscalation = 0;
  return true;
}

void Collector::abortRecolor() {
  // Everything allocated becomes the allocation color.  Dead cells are
  // revived as floating garbage for exactly one cycle: the next cycle is
  // forced Full, its toggle turns all of this into the clear color, and
  // its whole-heap trace re-derives liveness from the roots.  Leaving any
  // OTHER color behind would be unsound — a gray or stale-colored object
  // looks either already-traced (sons never scanned) or dead to that
  // cycle.
  Color Alloc = State.allocationColor();
  H.forEachObjectCell([&](ObjectRef Ref) {
    Color C = H.loadColor(Ref, std::memory_order_relaxed);
    if (C != Color::Blue && C != Alloc)
      H.storeColor(Ref, Alloc);
  });
}

void Collector::abortCycle(CycleStats &Cycle) {
  Cycle.Aborted = true;

  // 1. Quiesce the trace-path barrier tests: no phase is running.  (The
  //    pipeline stopped without publishing Idle — that is ours to do.)
  State.Phase.store(GcPhase::Idle, std::memory_order_release);

  // 2. Finish the handshake protocol back to Async so the mutator-facing
  //    state machine is whole again.  The wedged mutator that caused an
  //    escalated abort is usually still wedged, so under Escalate this
  //    handshake ends in force-adoption too — counted here, once, as this
  //    cycle's forced mutators.
  if (State.StatusC.load(std::memory_order_acquire) != HandshakeStatus::Async)
    Handshakes.post(HandshakeStatus::Async);
  Handshakes.wait();
  Cycle.ForcedMutators += Handshakes.lastForced();

  // 3. Let in-flight shade publications drain, then discard the gray work.
  //    Every mutator is back at Async with Idle published, so no new
  //    shades start; a bounded wait covers the CAS-won-push-pending window
  //    (a force-adopted thread wedged inside it is the documented
  //    quiet-thread assumption — see DESIGN.md §19).
  uint64_t Begin = nowNanos();
  while (State.InFlightShades.load(std::memory_order_acquire) != 0 &&
         nowNanos() - Begin < 10'000'000)
    std::this_thread::yield();
  State.Grays.clear();

  // 4. Lazy sweep: nothing was published this cycle (SweepAbort fires
  //    before publish), but drain defensively so no needs-sweep block can
  //    straddle the next cycle's toggle.
  if (LazyEngine)
    LazyEngine->drainResidue();

  // 5. Restore colors under the current (kept) color assignment.
  abortRecolor();

  // 6. The cycle consumed card / remembered-set information mid-flight;
  //    rather than reconstruct it, the next cycle traces everything.
  ForceFullNext = true;

  if (EventRing *Ring = Obs.laneRing(0)) {
    Ring->instant(ObsEventKind::EscalationStep, nowNanos(),
                  uint64_t(EscalationAction::AbortCycle),
                  Cycle.ForcedMutators);
    Ring->instant(ObsEventKind::CycleAbort, nowNanos(), uint64_t(AbortPhase),
                  AbortEscalation);
  }

  // 7. Certify the unwound heap before declaring the abort complete.
  runVerifier(VerifyScope::Concurrent);
}

CycleStats Collector::runCycle(CycleRequest Kind) {
  bool StopWorld = StopsTheWorld || InDegradedMode;
  bool Full = !generationalPlan() || StopWorld || Kind == CycleRequest::Full;
  CycleStats Cycle;
  Cycle.Kind = !generationalPlan() ? CycleKind::NonGenerational
               : Full              ? CycleKind::Full
                                   : CycleKind::Partial;
  if (generationalPlan())
    Cycle.AllocatedCards = H.countAllocatedCards();
  Cycle.GcWorkers = Pool.lanes();

  std::vector<CyclePhase> Phases;
  // The residue of the previous publish must drain before this cycle's
  // color toggle, so the phase goes first.  It contends only on list and
  // stash mutexes, so it runs before the world stops, too.
  if (lazySweep())
    Phases.push_back(residuePhase());
  if (StopWorld) {
    Phases.push_back({GcPhase::Clear, &CycleStats::ClearNanos,
                      [this](CycleStats &C) {
                        // Stopping before the toggle keeps untraced
                        // objects out of the traced color; then every
                        // stopped thread's roots shade under the new ones.
                        std::vector<uint64_t> Forced;
                        Handshakes.stopWorld(Forced, /*ShadeRoots=*/false);
                        initFullCollection(C);
                        State.switchAllocationClearColors();
                        Handshakes.stopWorld(Forced, /*ShadeRoots=*/true);
                        C.ForcedMutators += Forced.size();
                      }});
    Phases.push_back({GcPhase::Mark, &CycleStats::MarkNanos,
                      [this](CycleStats &) { Roots.markAll(CollectorGrays); }});
  } else {
    // clear stage (Figure 2 / Figure 5): the first handshake activates the
    // write barriers.
    Phases.push_back({GcPhase::Clear, &CycleStats::ClearNanos,
                      [this, Full](CycleStats &C) {
                        if (Full)
                          initFullCollection(C);
                        Handshakes.post(HandshakeStatus::Sync1);
                        waitOrAbort();
                      }});
    // mark stage: the second handshake brackets ClearCards and the color
    // toggle, in an order that differs between the generational variants:
    //   simple: ClearCards, then toggle (Figure 2) — a yellow object can
    //           only appear after its parent's card was already scanned;
    //   aging:  toggle, then ClearCards (Figure 5) — ClearCards must see
    //           post-toggle colors to shade young sons correctly.
    // The third handshake makes every mutator shade its own roots.  An
    // escalated wait aborts the cycle: return promptly, the pipeline's
    // AbortCheck hands control to abortCycle.
    bool CardsFirst = Plan.Mode == SweepMode::GenerationalSimple;
    Phases.push_back({GcPhase::Mark, &CycleStats::MarkNanos,
                      [this, Full, CardsFirst](CycleStats &C) {
                        Handshakes.post(HandshakeStatus::Sync2);
                        if (!CardsFirst)
                          State.switchAllocationClearColors();
                        if (!Full) {
                          uint64_t ScanStart = nowNanos();
                          clearCards(C);
                          C.CardScanNanos = nowNanos() - ScanStart;
                        }
                        if (CardsFirst)
                          State.switchAllocationClearColors();
                        if (!waitOrAbort())
                          return;

                        Handshakes.post(HandshakeStatus::Async);
                        Roots.markAll(CollectorGrays);
                        waitOrAbort();
                      }});
  }
  Phases.push_back(tracePhase());
  Phases.push_back(sweepPhase());

  runCyclePhases(State, Phases, Cycle, Obs.laneRing(0), verifyHook(Full),
                 [this] { return abortPending(); });
  // runCyclePhases already published Idle; resume the world after it.
  if (StopWorld)
    Handshakes.resumeWorld();
  return Cycle;
}

void Collector::runOneCycle(CycleRequest Kind) {
  H.pages().reset();
  resetGrayCounters();
  // Entries left from the previous cycle's late shades are stale; objects
  // that are genuinely still gray are re-found by this cycle's
  // verification pass.
  State.Grays.clear();

  // An aborted cycle's successor traces everything (abortCycle set this);
  // consuming the flag before the kind is recorded keeps the stats honest.
  if (ForceFullNext) {
    ForceFullNext = false;
    Kind = CycleRequest::Full;
  }

  // Per-cycle abort state: only an on-the-fly cycle can abort; a stopped-
  // world cycle never does (an armed abort site must not silently skip a
  // sweep it has no unwind for).
  AllowAbort = !StopsTheWorld && !InDegradedMode;
  AbortCycleFlag = false;
  EscalatedAbort = false;
  AbortPhase = GcPhase::Idle;
  AbortEscalation = 0;

  uint64_t Index = CyclesDone.load(std::memory_order_relaxed);
  EventRing *Ring = Obs.laneRing(0);
  uint64_t CycleStartNanos = Ring ? nowNanos() : 0;

  StopWatch Watch;
  Watch.start();
  bool WasDegraded = InDegradedMode;
  CycleStats Cycle = runCycle(Kind);
  Cycle.Degraded = WasDegraded;
  if (AbortCycleFlag)
    abortCycle(Cycle);
  Cycle.DurationNanos = Watch.stop();
  Cycle.PagesTouched = H.pages().countTouched();
  sumGrayCounters(Cycle);

  // Whole-cycle deadline: a cycle that ran far past its budget is reported
  // through the same stall machinery as a wedged handshake.  (A cycle that
  // never finishes surfaces as a handshake stall first — the per-wait
  // deadline covers that.)  An aborted cycle already reported through the
  // escalation ladder; re-firing here would double-count it.
  if (!Cycle.Aborted && Config.Watchdog.CycleDeadlineNanos != 0 &&
      Cycle.DurationNanos > Config.Watchdog.CycleDeadlineNanos)
    Handshakes.fireStall("cycle", Cycle.DurationNanos);

  if (!Cycle.Aborted) {
    H.resetAllocatedSinceGc();
    Trig.afterCycle(Cycle.LiveEstimateBytes);
  }
  // An aborted cycle freed nothing: leaving the allocation clock running
  // re-triggers the (forced-Full) successor promptly, and the trigger's
  // soft limit never learns from a live estimate that does not exist.

  // Escalation-ladder transitions.  Entering degraded mode is decided by
  // an escalated abort; leaving it by a degraded cycle in which every
  // mutator parked voluntarily — the signal that handshakes work again.
  if (WasDegraded) {
    if (Ring)
      Ring->instant(ObsEventKind::EscalationStep, nowNanos(),
                    uint64_t(EscalationAction::StwFallback),
                    Cycle.ForcedMutators);
    if (Cycle.ForcedMutators == 0) {
      InDegradedMode = false;
      if (Ring) {
        Ring->instant(ObsEventKind::EscalationStep, nowNanos(),
                      uint64_t(EscalationAction::Recovered), 0);
        Ring->instant(ObsEventKind::DegradedMode, nowNanos(), 0, 0);
      }
    }
  } else if (Cycle.Aborted && EscalatedAbort) {
    InDegradedMode = true;
    if (Ring)
      Ring->instant(ObsEventKind::DegradedMode, nowNanos(), 1,
                    Cycle.ForcedMutators);
  }

  if (Ring) {
    // Begin and end are emitted together once the kind is final (the
    // request alone cannot tell a Dlg full cycle from a generational one);
    // exporters order by timestamp, not ring position.
    Ring->instant(ObsEventKind::CycleBegin, CycleStartNanos,
                  uint64_t(Cycle.Kind), Index);
    Ring->instant(ObsEventKind::CycleEnd, nowNanos(), uint64_t(Cycle.Kind),
                  Index);
  }

  // Cycle publication happens in three ordered steps:
  //  1. the statistics, under StatsMutex (the cycle-publication lock);
  //  2. observer callbacks, with no collector lock held — they may call
  //     statsSnapshot() or requestCycle() freely;
  //  3. the completed-cycle count, under RequestMutex so collectSync's
  //     predicate and wakeup cannot miss each other.
  // The 1-before-3 ordering (release increment, acquire read) guarantees
  // that any thread observing completedCycles() >= N sees at least N fully
  // published cycles in statsSnapshot(); 2-before-3 guarantees every
  // observer ran before synchronous waiters on this cycle are released.
  {
    std::scoped_lock Locked(StatsMutex);
    Stats.Cycles.push_back(Cycle);
    Stats.GcActiveNanos += Cycle.DurationNanos;
  }
  notifyObservers(Cycle, Index);
  {
    std::scoped_lock Locked(RequestMutex);
    CyclesDone.fetch_add(1, std::memory_order_release);
  }
  DoneCv.notify_all();
}

void Collector::threadLoop() {
  for (;;) {
    CycleRequest Kind = CycleRequest::None;
    {
      std::unique_lock Locked(RequestMutex);
      RequestCv.wait_for(Locked,
                         std::chrono::microseconds(Config.PollMicros), [&] {
                           return StopFlag.load(std::memory_order_relaxed) ||
                                  Pending != CycleRequest::None;
                         });
      if (StopFlag.load(std::memory_order_relaxed) &&
          Pending == CycleRequest::None)
        return;
      Kind = Pending;
      Pending = CycleRequest::None;
    }
    if (Kind == CycleRequest::None)
      Kind = Trig.evaluate(H);
    if (Kind == CycleRequest::None && LazyEngine &&
        H.needsSweepBlockCount() != 0) {
      // Idle drip: a few residue blocks per poll tick, so reclamation
      // terminates on a heap nobody allocates from.  UsedBytes only drops
      // as blocks are swept, so re-evaluate the trigger once the residue
      // is gone rather than starting a cycle off the stale figure.
      LazyEngine->sweepSome(16);
      continue;
    }
    if (Kind != CycleRequest::None)
      runOneCycle(Kind);
  }
}
