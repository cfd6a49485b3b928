//===- gc/Collector.h - Collector thread and cycle driver -------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector: one dedicated thread that waits for a trigger (or an
/// explicit request), runs a collection cycle, and records statistics.
/// Constructed directly, it is the non-generational DLG baseline of
/// Section 2 with the Remark 5.1 color toggle ("black" is the current
/// allocation color), or, with StopsTheWorld, a classic stop-the-world
/// mark-sweep comparator (NOT in the paper's evaluation; the pause-time
/// ablation uses it).  GenerationalCollector (Sections 3-7) differs from
/// the baseline only in its generations, so it overrides hooks, not the
/// cycle: every cycle of every collector is built by the one runCycle.
///
/// The collector also implements the allocation back-pressure hook: a
/// mutator that finds the heap exhausted calls waitForMemory(), which
/// requests a full collection and cooperates with handshakes while waiting,
/// so the collection it is waiting for can actually make progress.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_COLLECTOR_H
#define GENGC_GC_COLLECTOR_H

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "gc/CyclePhase.h"
#include "gc/HeapVerifier.h"
#include "gc/ParallelTrace.h"
#include "obs/CycleStats.h"
#include "obs/GcObserver.h"
#include "obs/ObsRegistry.h"
#include "gc/Sweeper.h"
#include "gc/Tracer.h"
#include "gc/Trigger.h"
#include "gc/WorkerPool.h"
#include "heap/Heap.h"
#include "runtime/Handshake.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"
#include "runtime/Roots.h"
#include "support/FaultInjector.h"

namespace gengc {

/// Static collector configuration.
struct CollectorConfig {
  TriggerPolicy Trigger;

  /// Use the Section 6 aging mechanism (GenerationalCollector only).
  bool Aging = false;

  /// Track inter-generational pointers with remembered sets instead of
  /// card marking — the Section 3.1 alternative the paper rejected.
  /// GenerationalCollector, simple promotion only.
  bool RememberedSets = false;

  /// Tenuring threshold for aging mode; objects are allocated with age 1
  /// and promoted when their age reaches this value.  The paper evaluates
  /// 2, 4, 6, 8 and 10 (Figures 18-20).
  uint8_t OldestAge = 2;

  /// How often the collector thread re-evaluates the trigger.
  uint32_t PollMicros = 200;

  /// Drive the partial-collection card scan through the two-level summary
  /// table and the allocated-block filter (GenerationalCollector).  Off
  /// forces the historical linear walk of [0, numCards) — same cards
  /// visited in the same order, strictly more bytes read; exists so tests
  /// can prove the filter changes cost, not outcomes.
  bool CardSummaryScan = true;

  /// Number of GC worker lanes for the parallel cycle phases (card scan,
  /// trace, sweep).  1 (the default) spawns no pool threads; N > 1 spawns
  /// N - 1 persistent pool threads that assist the collector thread.  Every
  /// lane count runs the same phase code and reports the same collection
  /// counts (DeterminismTest; DESIGN.md §9 names the shard-boundary counts
  /// that may only grow with lanes).  Mutator-facing machinery
  /// (handshakes, write barrier, color toggle) is unaffected by this knob.
  unsigned GcThreads = 1;

  /// Trace prefetch window depth: each trace lane pops up to this many
  /// gray refs ahead and software-prefetches their color byte and header
  /// line before tracing the current one, overlapping the mark loop's
  /// cache misses (see DESIGN.md §17).  0 disables the window and traces
  /// in plain LIFO order, the reference the window is tested against.
  /// Validated to at most Tracer::MaxPrefetchDepth (64); forced to 0 in
  /// builds where the GENGC_PREFETCH probe failed.  All trace statistics
  /// are order-independent, so any depth produces identical CycleStats.
  unsigned PrefetchDepth = 4;

  /// Observability subsystem configuration (see obs/Event.h).  Metrics are
  /// always on; Obs.Tracing additionally records events into per-actor
  /// rings.
  ObsConfig Obs;

  /// Stall watchdog: deadlines for handshake waits and whole cycles, plus
  /// the expiry policy (see runtime/Watchdog.h).  Disabled by default.
  WatchdogConfig Watchdog;

  /// Run the heap-invariant verifier (gc/HeapVerifier.h) at every phase
  /// boundary, aborting on a confirmed violation.  Also enabled by the
  /// GENGC_VERIFY_HEAP environment variable; for debugging and the
  /// hardening tests — each boundary pass scans the whole heap.
  bool VerifyHeap = false;
};

/// The DLG baseline and the STW comparator, and the base of the
/// generational collector.
class Collector : public MemoryWaiter {
public:
  /// The DLG baseline, or the STW comparator when \p StopsTheWorld is set.
  /// Every cycle collects the whole heap; the trigger is the "heap almost
  /// full" rule alone (Section 8: identical with and without generations).
  Collector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
            GlobalRoots &Roots, const CollectorConfig &Config,
            bool StopsTheWorld = false);
  ~Collector() override;

  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;

  /// Spawns the collector thread.
  void start();

  /// Finishes any in-progress cycle and joins the thread.  Idempotent.
  void stop();

  /// Asks for a cycle of (at least) \p Kind; returns immediately.
  void requestCycle(CycleRequest Kind);

  /// Requests a cycle and blocks until one completes.  Must be called from
  /// a thread that is NOT a registered mutator (e.g. a test driver);
  /// mutator threads use collectSyncCooperating instead.
  void collectSync(CycleRequest Kind);

  /// Requests a cycle and waits for completion while cooperating with
  /// handshakes on behalf of \p M (safe to call from a mutator thread).
  void collectSyncCooperating(CycleRequest Kind, Mutator &M);

  /// MemoryWaiter: a mutator ran out of memory.
  void waitForMemory(Mutator &M) override;

  /// Copy of the statistics so far.  Taken under the cycle-publication
  /// lock, so a caller that observed completedCycles() >= N is guaranteed a
  /// snapshot containing at least N fully-formed cycles (including their
  /// per-lane worker-time vectors).
  GcRunStats statsSnapshot() const;

  /// Resets the accumulated statistics (between benchmark phases).
  void resetStats();

  /// Number of completed cycles.
  uint64_t completedCycles() const {
    return CyclesDone.load(std::memory_order_acquire);
  }

  /// Number of times a mutator had to wait for memory (allocation found
  /// the heap exhausted) — should stay 0 in healthy configurations.
  uint64_t memoryWaits() const {
    return MemoryWaits.load(std::memory_order_relaxed);
  }

  /// Number of watchdog deadline expirations (handshake or cycle) so far.
  uint64_t watchdogFires() const {
    return State.WatchdogFires.load(std::memory_order_relaxed);
  }

  const Trigger &trigger() const { return Trig; }
  CollectorState &state() { return State; }

  /// The trace engine (segment-pool gauges for Runtime::metrics()).
  const ParallelTracer &traceEngine() const { return TraceEngine; }

  /// The observability registry (event rings + histograms) of this
  /// collector's runtime.
  ObsRegistry &obs() { return Obs; }
  const ObsRegistry &obs() const { return Obs; }

  /// Registers \p Observer for per-cycle callbacks (see obs/GcObserver.h
  /// for the callback contract).  The observer must outlive the collector
  /// or be removed first; thread-safe.
  void addObserver(GcObserver &Observer);

  /// Deregisters \p Observer; no callback is running or will start after
  /// this returns (callbacks are serialized with registration).
  void removeObserver(GcObserver &Observer);

protected:
  /// Builds a collector whose sweep, write barrier and trigger follow
  /// \p Mode: the sweep plan, the barrier kind, and whether the trigger
  /// requests partial cycles.
  Collector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
            GlobalRoots &Roots, const CollectorConfig &Config, SweepMode Mode,
            bool StopsTheWorld);

  //===--------------------------------------------------------------------===
  // Cycle recovery (WatchdogPolicy::Escalate; DESIGN.md §19).
  //===--------------------------------------------------------------------===

  /// Handshake wait with escalation support: a wait() that escalated
  /// (every laggard force-adopted) flips the cycle into the aborting state
  /// and returns false — the phase body must return promptly so abortCycle
  /// can unwind.  A plain pass-through when no escalation happens.
  bool waitOrAbort();

  /// Consults an abort fault site at a phase entry: returns true when the
  /// phase body must be skipped, either because the cycle is already
  /// aborting or because \p Site (TraceAbort / SweepAbort) fired.  Inert
  /// while a cycle that cannot abort runs (STW comparator, the degraded
  /// fallback) so an armed site can never silently skip a sweep it has no
  /// unwind for.
  bool abortPhaseEntry(FaultSite Site, GcPhase Phase);

  /// True once this cycle decided to abort (the pipeline's AbortCheck).
  bool abortPending() const { return AbortCycleFlag; }

  /// Unwinds an aborted cycle to a consistent state — quiesce barrier
  /// shading, finish the handshake protocol back to Async, discard the
  /// gray work, restore every allocated cell to a traced-looking color
  /// (abortRecolor), force the next cycle Full — and certifies the result
  /// with a verifier pass.  The mid-cycle color toggle (if it happened) is
  /// deliberately KEPT, not reverted: racing allocations stamp the current
  /// allocation color, so reverting would reopen the very create/sweep
  /// race the toggle closed; recoloring forward under the current
  /// assignment is race-free.  Collector thread only, with the phase
  /// pipeline already stopped.
  void abortCycle(CycleStats &Cycle);

  /// Collector-specific color restoration for abortCycle: the base
  /// version returns every non-blue cell to the current allocation color
  /// (no Black generation exists for DLG/STW — the next Full cycle's
  /// toggle makes all of it clear and re-traces from roots);
  /// GenerationalCollector overrides to keep the old generation black.
  virtual void abortRecolor();

  /// Runs before the color toggle of every whole-heap cycle: before the
  /// first handshake on the fly, with the world stopped otherwise.  The
  /// generational collector's InitFullCollection; nothing to do for the
  /// baseline.
  virtual void initFullCollection(CycleStats &) {}

  /// ClearCards of a partial cycle (the generational collector's card scan
  /// or remembered-set drain), run by the mark phase on the simple-
  /// promotion side of the toggle before it and on the aging side after
  /// it.  The baseline runs no partial cycles.
  virtual void clearCards(CycleStats &) {}

  /// Computed per cycle: only an on-the-fly cycle can abort.  A stopped-
  /// world cycle (the STW comparator, the degraded fallback) has no
  /// handshake waits and no unwind.
  bool AllowAbort = false;
  /// This cycle has decided to abort; phase bodies return early and the
  /// pipeline stops (abortPending).
  bool AbortCycleFlag = false;
  /// The abort came from an escalated handshake (vs. an injected fault):
  /// laggards were force-adopted, so the ladder proceeds to degraded mode.
  bool EscalatedAbort = false;
  /// Phase the abort was requested in, and the escalating wait's fire
  /// count (CycleAbort event payload).
  GcPhase AbortPhase = GcPhase::Idle;
  uint64_t AbortEscalation = 0;
  /// Cycles run as the cooperating-STW fallback until one completes with
  /// no forced mutators.  Collector thread only.
  bool InDegradedMode = false;

  /// Resets the per-cycle gray counters of the collector and all mutators.
  void resetGrayCounters();

  /// Sums the per-cycle gray counters into \p Stats (young survivors).
  void sumGrayCounters(CycleStats &Stats);

  /// The color that marks "traced by this cycle": the trace phase's black
  /// and the key of the verifier's post-trace reachability check.  The DLG
  /// and STW collectors trace with the allocation color; the generational
  /// collector overrides this with Color::Black.
  virtual Color tracedBlackColor() const { return State.allocationColor(); }

  /// The AfterPhase callback for runCyclePhases: runs the verifier at every
  /// phase boundary with the sound scope for that boundary.  Returns an
  /// empty function when verification is off (the common case — the phase
  /// runner then skips the hook entirely).  \p FullCycle enables the
  /// post-trace tri-color check, which is only sound when this cycle traced
  /// the whole heap.
  std::function<void(GcPhase)> verifyHook(bool FullCycle);

  /// The Trace phase of every cycle: traces the gray work with
  /// tracedBlackColor() and records the trace statistics.  Bytes traced
  /// is the live estimate, except under a generational plan, where
  /// sweepPhase computes it.
  CyclePhase tracePhase();

  /// The Sweep phase of every cycle: the whole-heap sweepParallel under
  /// the plan.  A generational plan sets the live estimate to
  /// LiveBytesAfter minus AllocColoredBytes.
  CyclePhase sweepPhase();

  /// True for the generational collector's plans (either promotion mode).
  bool generationalPlan() const {
    return Plan.Mode != SweepMode::NonGenerational;
  }

  /// Runs one verifier pass of \p Scope now; aborts with a full violation
  /// dump if the heap is inconsistent, emits a VerifyPass event if clean.
  /// No-op when verification is off.
  void runVerifier(VerifyScope Scope);

  Heap &H;
  CollectorState &State;
  MutatorRegistry &Registry;
  GlobalRoots &Roots;
  CollectorConfig Config;

  /// Rings and histograms.  Owned here (not by Runtime) so collectors
  /// constructed directly by tests are observable too; declared before the
  /// engines that take ring pointers from it.
  ObsRegistry Obs;

  HandshakeDriver Handshakes;
  /// The heap-invariant checker; non-null only when Config.VerifyHeap or
  /// GENGC_VERIFY_HEAP enabled it at construction.
  std::unique_ptr<HeapVerifier> Verifier;
  /// Worker lanes for the parallel cycle phases; sized by Config.GcThreads.
  /// Must be declared before the engines that capture it.
  GcWorkerPool Pool;
  ParallelTracer TraceEngine;
  Trigger Trig;
  GrayCounters CollectorGrays;

  /// The survivor semantics of every sweep, fixed at construction.
  SweepPlan Plan;

private:
  void threadLoop();
  void runOneCycle(CycleRequest Kind);

  /// Runs one cycle of \p Kind; every collector's every cycle.  The Clear
  /// and Mark phases run through handshakes (Figures 2 and 5), or with the
  /// world stopped for the STW comparator and the degraded fallback
  /// (DESIGN.md §19): stop the world, initFullCollection, toggle the
  /// colors, then shade every stopped thread's roots under the toggled
  /// colors (HandshakeDriver::stopWorld).  Stopping before the toggle
  /// means nothing a still-running thread allocates can carry the color
  /// the trace treats as done.  Plan.Mode decides the rest: a
  /// non-generational cycle is whole-heap, a generational one Partial
  /// unless \p Kind or a stopped world makes it Full.  The trace and sweep
  /// phases are shared.
  CycleStats runCycle(CycleRequest Kind);

  /// The STW comparator: every cycle runs with the world stopped.
  const bool StopsTheWorld;

  /// Invokes every registered observer for \p Cycle.  Runs on the collector
  /// thread with no collector lock held (only ObserverMutex, which
  /// serializes callbacks with add/removeObserver — hence observers must
  /// not register or deregister from inside a callback).
  void notifyObservers(const CycleStats &Cycle, uint64_t CycleIndex);

  std::thread Thread;
  bool Running = false;
  std::atomic<bool> StopFlag{false};

  std::mutex RequestMutex;
  std::condition_variable RequestCv;
  std::condition_variable DoneCv;
  CycleRequest Pending = CycleRequest::None;

  std::atomic<uint64_t> CyclesDone{0};
  std::atomic<uint64_t> MemoryWaits{0};

  /// An aborted cycle consumed its card / remembered-set information
  /// mid-flight; rather than reconstruct per-generation records, the next
  /// cycle traces everything (abortCycle sets this, runOneCycle consumes
  /// it).  Collector thread only.
  bool ForceFullNext = false;

  /// The cycle-publication lock: runOneCycle pushes each finished cycle's
  /// statistics under it *before* CyclesDone is bumped (with release) under
  /// RequestMutex, and statsSnapshot copies under it — so the completed-
  /// cycle count never runs ahead of the visible statistics, and the
  /// per-lane worker-time vectors inside each CycleStats are never read
  /// while being written.
  mutable std::mutex StatsMutex;
  GcRunStats Stats;

  std::mutex ObserverMutex;
  std::vector<GcObserver *> Observers;
};

} // namespace gengc

#endif // GENGC_GC_COLLECTOR_H
