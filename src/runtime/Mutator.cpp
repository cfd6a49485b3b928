//===- runtime/Mutator.cpp - Program threads -------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include <algorithm>
#include <thread>

#include "runtime/MutatorRegistry.h"
#include "support/Backoff.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"

using namespace gengc;

MemoryWaiter::~MemoryWaiter() = default;

Mutator::Mutator(Heap &H, CollectorState &S, MutatorRegistry &Registry)
    : H(H), State(S), Registry(Registry) {
  Registry.add(*this); // assigns Id under the registry lock
  for (unsigned Class = 0; Class < NumSizeClasses; ++Class)
    Batch[Class] = 1;
}

Mutator::~Mutator() {
  GENGC_ASSERT(Stack.empty(), "mutator exits with live local roots");
  // Return cached and spare cells so the memory is not stranded.  The cells
  // are Blue and the transfer synchronizes through the class list's mutex.
  for (unsigned Class = 0; Class < NumSizeClasses; ++Class) {
    if (Cache[Class].Count != 0)
      H.pushFreeChain(Class, Cache[Class]);
    Cache[Class] = Heap::CellChain();
    while (SpareCount[Class] != 0)
      H.pushFreeChain(Class, Spares[Class][--SpareCount[Class]]);
  }
  Registry.remove(*this);
}

//===----------------------------------------------------------------------===//
// Allocation.
//===----------------------------------------------------------------------===//

void Mutator::recordPause(uint64_t Nanos, bool StopTheWorld) {
  if (Obs)
    (StopTheWorld ? Obs->stwPauseHistogram() : Obs->stallHistogram())
        .record(Nanos);
  PauseCount.fetch_add(1, std::memory_order_relaxed);
  PauseTotalNanos.fetch_add(Nanos, std::memory_order_relaxed);
  uint64_t Max = PauseMaxNanos.load(std::memory_order_relaxed);
  while (Nanos > Max &&
         !PauseMaxNanos.compare_exchange_weak(Max, Nanos,
                                              std::memory_order_relaxed))
    ;
  if (!StopTheWorld)
    return;
  StwPauseCount.fetch_add(1, std::memory_order_relaxed);
  Max = StwPauseMaxNanos.load(std::memory_order_relaxed);
  while (Nanos > Max &&
         !StwPauseMaxNanos.compare_exchange_weak(Max, Nanos,
                                                 std::memory_order_relaxed))
    ;
}

void Mutator::maybeThrottleAllocation() {
  // Allocation stall: once this mutator fleet has consumed its budget
  // since the last completed cycle, wait (cooperating, so handshakes keep
  // making progress) until a cycle completes and resets the clock, or the
  // budget stops holding.  Checked on the cache-refill slow path only —
  // every few hundred allocations.
  uint64_t Limit = State.ThrottleBytes.load(std::memory_order_relaxed);
  if (!State.allocationBudgetHolds() || H.allocatedSinceGcBytes() < Limit)
    return;
  uint64_t AllocatedAtStall = H.allocatedSinceGcBytes();
  uint64_t Start = nowNanos();
  // Capped exponential backoff: short sleeps while the stall is young (the
  // collector usually finishes within tens of microseconds of the budget
  // clearing), longer ones once it clearly is not, so a fleet of throttled
  // mutators does not spin the scheduler.  Cooperate before every sleep or
  // the cycle we are waiting out could not finish its handshakes.
  Backoff Back(/*InitialNanos=*/5 * 1000, /*CapNanos=*/200 * 1000);
  while (State.allocationBudgetHolds() &&
         H.allocatedSinceGcBytes() >= Limit) {
    cooperate();
    Back.pause();
  }
  uint64_t Stalled = nowNanos() - Start;
  if (Ring)
    Ring->emit(ObsEventKind::AllocStall, Start, Stalled,
               uint64_t(StallCause::Throttle), AllocatedAtStall);
  recordPause(Stalled);
}

void Mutator::flushLocalCaches(unsigned ExceptClass) {
  // Emergency rung: memory parked in this thread's caches is invisible to
  // every other allocator (and to ourselves for other size classes).
  // Returning it — active chains and batched spares alike — to the central
  // lists costs one mutex round per non-empty chain and can be the
  // difference between recovery and abort when the heap is fragmented
  // across caches.  A starved thread finds it there: every refill reads its
  // class's list (and the free-block stack) before reporting exhaustion.
  for (unsigned Class = 0; Class < NumSizeClasses; ++Class) {
    if (Class != ExceptClass && Cache[Class].Count != 0) {
      H.pushFreeChain(Class, Cache[Class]);
      Cache[Class] = Heap::CellChain();
    }
    while (SpareCount[Class] != 0)
      H.pushFreeChain(Class, Spares[Class][--SpareCount[Class]]);
  }
}

template <typename TryFn>
bool Mutator::runOomLadder(bool MayBlock, bool Large, uint64_t RequestBytes,
                           unsigned ExceptClass, TryFn TryOnce,
                           const char *NoWaiterMsg, const char *ExhaustedMsg) {
  static const OomConfig DefaultOom;
  const OomConfig &Cfg = Oom ? *Oom : DefaultOom;
  unsigned TotalAttempts = 0;
  for (;;) {
    // Short pause between futile rounds: waitForMemory already blocks for
    // a full collection, but when collections reclaim nothing the rounds
    // degenerate into a tight retry loop racing other starved threads.
    Backoff Back(/*InitialNanos=*/10 * 1000, /*CapNanos=*/1000 * 1000);
    for (unsigned Attempt = 0; Attempt < Cfg.RetryAttempts; ++Attempt) {
      if (TryOnce())
        return true;
      if (!MayBlock)
        return false;
      if (!Waiter)
        fatalError(NoWaiterMsg, __FILE__, __LINE__);
      OomEscalationStep Step = OomEscalationStep::Wait;
      if (Attempt == Cfg.EmergencyAfter) {
        flushLocalCaches(ExceptClass);
        Step = OomEscalationStep::Emergency;
      }
      if (Ring)
        Ring->instant(ObsEventKind::OomEscalation, nowNanos(),
                      uint64_t(Step), TotalAttempts);
      uint64_t Start = Ring ? nowNanos() : 0;
      Waiter->waitForMemory(*this);
      if (Ring)
        Ring->emit(ObsEventKind::AllocStall, Start, nowNanos() - Start,
                   uint64_t(StallCause::OutOfMemory));
      ++TotalAttempts;
      if (Attempt > 0)
        Back.pause();
    }
    if (!Cfg.Handler)
      fatalError(ExhaustedMsg, __FILE__, __LINE__);
    if (Ring)
      Ring->instant(ObsEventKind::OomEscalation, nowNanos(),
                    uint64_t(OomEscalationStep::Handler), TotalAttempts);
    OomInfo Info;
    Info.RequestBytes = RequestBytes;
    Info.Attempts = TotalAttempts;
    Info.LargeObject = Large;
    if (Cfg.Handler(*this, Info) == OomAction::Retry)
      continue;
    if (Ring)
      Ring->instant(ObsEventKind::OomEscalation, nowNanos(),
                    uint64_t(OomEscalationStep::GaveUp), TotalAttempts);
    return false;
  }
}

bool Mutator::refillCache(unsigned ClassIdx, bool MayBlock) {
  // A spare chain from an earlier batched refill: install it without
  // touching any shared state.
  if (SpareCount[ClassIdx] != 0) {
    Cache[ClassIdx] = Spares[ClassIdx][--SpareCount[ClassIdx]];
    return true;
  }
  if (MayBlock)
    maybeThrottleAllocation();

  // Adapt the batch before the fetch.  The gap (allocations since the last
  // central fetch of this class) is compared against the cells that fetch
  // supplied: a gap within 2x means this class burns through its batch
  // almost back-to-back — double it; a gap beyond 8x means the batch
  // outlives the demand — halve it, so idle classes do not hoard chains.
  uint64_t Allocs = AllocObjects.load(std::memory_order_relaxed);
  uint64_t Gap = Allocs - LastRefillAllocs[ClassIdx];
  unsigned Max = std::min<unsigned>(std::max(H.config().RefillBatchMax, 1u),
                                    MaxRefillBatch);
  unsigned B = Batch[ClassIdx];
  uint64_t LastCells = LastRefillCells[ClassIdx];
  if (LastCells != 0) {
    if (Gap <= 2 * LastCells)
      B *= 2;
    else if (Gap >= 8 * LastCells)
      B /= 2;
  }
  B = std::min(std::max(B, 1u), Max);
  Batch[ClassIdx] = uint8_t(B);
  LastRefillAllocs[ClassIdx] = Allocs;

  return runOomLadder(
      MayBlock, /*Large=*/false, sizeClassBytes(ClassIdx), ClassIdx,
      [this, ClassIdx, B] {
        if (FaultInjector::fire(FaultSite::AllocFail))
          return false;
        Heap::CellChain Chains[MaxRefillBatch];
        Heap::RefillStats Stats;
        unsigned Got = H.popFreeChains(ClassIdx, B, Chains, &Stats);
        if (Got == 0)
          return false;
        Cache[ClassIdx] = Chains[0];
        uint32_t Cells = Chains[0].Count;
        for (unsigned I = 1; I < Got; ++I) {
          Spares[ClassIdx][SpareCount[ClassIdx]++] = Chains[I];
          Cells += Chains[I].Count;
        }
        LastRefillCells[ClassIdx] = Cells;
        if (Ring && Stats.Contended)
          Ring->instant(ObsEventKind::ListContention, nowNanos(), ClassIdx);
        return true;
      },
      "heap exhausted and no memory waiter installed",
      "heap exhausted: collections reclaimed no memory");
}

ObjectRef Mutator::allocateLarge(uint32_t Bytes, bool MayBlock) {
  if (MayBlock)
    maybeThrottleAllocation();
  ObjectRef Ref = NullRef;
  runOomLadder(
      MayBlock, /*Large=*/true, Bytes, /*ExceptClass=*/NumSizeClasses,
      [this, Bytes, &Ref] {
        if (FaultInjector::fire(FaultSite::AllocFail))
          return false;
        Ref = H.allocateLarge(Bytes);
        return Ref != NullRef;
      },
      "heap exhausted (large) and no memory waiter installed",
      "heap exhausted: no block run for a large object");
  return Ref;
}

ObjectRef Mutator::allocate(uint32_t RefSlots, uint32_t DataBytes,
                            uint16_t Tag) {
  return allocateImpl(RefSlots, DataBytes, Tag, /*MayBlock=*/true);
}

ObjectRef Mutator::tryAllocate(uint32_t RefSlots, uint32_t DataBytes,
                               uint16_t Tag) {
  return allocateImpl(RefSlots, DataBytes, Tag, /*MayBlock=*/false);
}

ObjectRef Mutator::allocateImpl(uint32_t RefSlots, uint32_t DataBytes,
                                uint16_t Tag, bool MayBlock) {
  uint32_t Bytes = objectBytesFor(RefSlots, DataBytes);
  unsigned ClassIdx = sizeClassFor(Bytes);

  ObjectRef Ref;
  if (ClassIdx == NumSizeClasses) {
    Ref = allocateLarge(Bytes, MayBlock);
    if (Ref == NullRef)
      return NullRef;
  } else {
    Heap::CellChain &Chain = Cache[ClassIdx];
    if (Chain.Head == NullRef && !refillCache(ClassIdx, MayBlock))
      return NullRef;
    Ref = Cache[ClassIdx].Head;
    Cache[ClassIdx].Head = H.chainNext(Ref);
    --Cache[ClassIdx].Count;
  }

  initObject(H, Ref, RefSlots, Tag, Bytes);
  if (State.Barrier.load(std::memory_order_relaxed) == BarrierKind::Aging)
    H.ages().setAge(Ref, 1); // Section 8.5.2: allocated with age 1.

  // Publishing store: the object becomes visible to sweep and trace with
  // the current allocation color (the "create" routine of Figure 1; the
  // color toggle removed all dependence on the sweep pointer's position).
  H.storeColor(Ref, State.allocationColor(), std::memory_order_release);

  AllocObjects.fetch_add(1, std::memory_order_relaxed);
  AllocBytes.fetch_add(Bytes, std::memory_order_relaxed);
  return Ref;
}

//===----------------------------------------------------------------------===//
// Handshake cooperation.
//===----------------------------------------------------------------------===//

void Mutator::markOwnRoots() {
  // Responding to the third handshake: shade every local root (Figure 1's
  // Cooperate).  The barrier-kind dispatch mirrors writeRef.
  bool Simple =
      State.Barrier.load(std::memory_order_relaxed) == BarrierKind::Simple;
  for (ObjectRef Root : Stack) {
    if (Simple)
      markGraySimple(H, State, StatusM.load(std::memory_order_relaxed), Root,
                     Grays);
    else
      markGrayClearOnly(H, State, Root, Grays);
  }
}

void Mutator::cooperateLocked(bool Helped) {
  HandshakeStatus SC = State.StatusC.load(std::memory_order_acquire);
  HandshakeStatus SM = StatusM.load(std::memory_order_relaxed);
  if (SM == SC)
    return;
  if (SM == HandshakeStatus::Sync2)
    markOwnRoots();
  StatusM.store(SC, std::memory_order_release);
  LastResponseNanos.store(nowNanos(), std::memory_order_relaxed);
  if (Obs) {
    // Handshake response latency: from the collector's post (whose
    // timestamp store precedes the status store we just observed) to this
    // response.  Always-on histogram sample; span event with tracing.
    uint64_t Post = State.StatusPostNanos.load(std::memory_order_relaxed);
    uint64_t Now = nowNanos();
    uint64_t Latency = Now > Post ? Now - Post : 0;
    Obs->handshakeHistogram().record(Latency);
    if (Ring)
      Ring->emit(ObsEventKind::HandshakeAck, Post, Latency, uint64_t(SC),
                 Helped ? 1 : 0);
  }
}

void Mutator::cooperate() {
  if (State.StopWorld.load(std::memory_order_acquire))
    parkForStopTheWorld();
  if (StatusM.load(std::memory_order_relaxed) ==
      State.StatusC.load(std::memory_order_acquire))
    return;
  // Fault site: swallow the response entirely — the thread keeps mutating
  // but the handshake never completes on its own, which is the scenario
  // WatchdogPolicy::Escalate exists for.  Placed after the StopWorld check
  // so a "stalled" thread still parks for the degraded STW fallback
  // (recovery is then observable: the fallback needs no forcing).
  if (FaultInjector::fire(FaultSite::ThreadStall))
    return;
  // Fault site: delay the response while a handshake is actually pending —
  // the unresponsive-mutator scenario the watchdog exists to diagnose.
  FaultInjector::fire(FaultSite::HandshakeDelay);
  std::scoped_lock Locked(CoopMutex);
  cooperateLocked();
}

void Mutator::forceAdopt() {
  // No cooperateLocked: the Sync2 root shade a real response would perform
  // is exactly what cannot be trusted from a wedged thread, and the caller
  // is about to abort the cycle anyway — adopt the status bare so the
  // handshake wait terminates.
  std::scoped_lock Locked(CoopMutex);
  StatusM.store(State.StatusC.load(std::memory_order_acquire),
                std::memory_order_release);
}

void Mutator::parkForStopTheWorld() {
  // Publish the stop epoch we are parked for: the collector counts this
  // thread stopped only for the current epoch, so a thread still leaving
  // the previous pause is never trusted.  A new pause can begin before
  // this thread wakes from the previous one; it then stays parked and
  // publishes the new epoch.  The collector shades our roots itself.
  uint64_t Start = nowNanos();
  Backoff Back(/*InitialNanos=*/5 * 1000, /*CapNanos=*/100 * 1000);
  while (State.StopWorld.load(std::memory_order_acquire)) {
    uint64_t Epoch = State.StopEpoch.load(std::memory_order_acquire);
    if (StwParkedEpoch.load(std::memory_order_relaxed) != Epoch) {
      StwParkedEpoch.store(Epoch, std::memory_order_release);
      // A new pause just began: resume short sleeps so its resume latency
      // is not inflated by the backoff state of the previous one.
      Back.reset();
    }
    Back.pause();
  }
  StwParkedEpoch.store(0, std::memory_order_release);
  recordPause(nowNanos() - Start, /*StopTheWorld=*/true);
}

bool Mutator::stoppedFor(uint64_t Epoch) {
  if (StwParkedEpoch.load(std::memory_order_acquire) == Epoch)
    return true;
  std::scoped_lock Locked(CoopMutex);
  return Blocked.load(std::memory_order_relaxed);
}

void Mutator::shadeRootsForStw() {
  std::scoped_lock Locked(CoopMutex);
  for (ObjectRef Root : Stack)
    markGrayClearOnly(H, State, Root, Grays);
}

void Mutator::enterBlocked() {
  std::scoped_lock Locked(CoopMutex);
  cooperateLocked();
  Blocked.store(true, std::memory_order_relaxed);
  LastResponseNanos.store(nowNanos(), std::memory_order_relaxed);
}

void Mutator::exitBlocked() {
  {
    std::scoped_lock Locked(CoopMutex);
    Blocked.store(false, std::memory_order_relaxed);
    cooperateLocked();
    LastResponseNanos.store(nowNanos(), std::memory_order_relaxed);
  }
  // A stop-the-world pause may be in progress: this thread must not
  // resume mutating until it ends (the collector counted it stopped while
  // it was blocked, and shades its roots).
  if (State.StopWorld.load(std::memory_order_acquire))
    parkForStopTheWorld();
}

void Mutator::helpIfBlocked() {
  std::scoped_lock Locked(CoopMutex);
  if (Blocked.load(std::memory_order_relaxed))
    cooperateLocked(/*Helped=*/true);
}
