//===- runtime/Mutator.h - Program threads ----------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Mutator is one program thread as seen by the collector: it allocates
/// objects through a thread-local cache (no synchronization on the fast
/// path), performs pointer updates through the write barrier (Figures 1/4),
/// keeps a shadow stack of local roots, and cooperates with handshakes at
/// the points where the embedding program calls cooperate() — the analogue
/// of the paper's "backward branches and invocations".
///
/// Mutators never respond to a handshake in the middle of an update or an
/// allocation, because cooperation only happens inside cooperate().
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_MUTATOR_H
#define GENGC_RUNTIME_MUTATOR_H

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

#include "heap/Heap.h"
#include "obs/ObsRegistry.h"
#include "runtime/CollectorState.h"
#include "runtime/ObjectModel.h"
#include "runtime/Watchdog.h"
#include "runtime/WriteBarrier.h"

namespace gengc {

class Mutator;
class MutatorRegistry;

/// Back-pressure hook for allocation: when the heap has no free memory the
/// mutator asks the waiter (implemented by core/Runtime) to get a collection
/// done.  Implementations must call Mutator::cooperate() while waiting or
/// the collector's handshakes would deadlock against the waiting thread.
class MemoryWaiter {
public:
  virtual ~MemoryWaiter();
  /// Blocks until a collection has plausibly freed memory.
  virtual void waitForMemory(Mutator &M) = 0;
};

/// What an OomHandler tells the allocator to do.
enum class OomAction : uint8_t {
  /// The handler freed memory (dropped roots, shrank a structure); run the
  /// whole wait-and-retry ladder again.
  Retry,
  /// Give up: the allocation returns NullRef to the caller.
  GiveUp,
};

/// What the allocator knows when it invokes the OomHandler.
struct OomInfo {
  /// Size of the allocation that cannot be satisfied, in bytes.
  uint64_t RequestBytes = 0;
  /// Failed attempts (each one a full collection wait) before the handler
  /// was consulted.
  unsigned Attempts = 0;
  /// True for a large-object (block-run) allocation.
  bool LargeObject = false;
};

/// Last-resort out-of-memory hook, invoked on the allocating thread after
/// the retry ladder is exhausted.  The mutator is live: the handler may
/// drop roots, walk its own data structures, even allocate (small amounts —
/// the heap is exhausted).  It must not deregister the mutator.
using OomHandler = std::function<OomAction(Mutator &M, const OomInfo &Info)>;

/// Policy for the out-of-memory escalation ladder (part of RuntimeConfig).
struct OomConfig {
  /// Wait-for-collection attempts before the ladder is exhausted and the
  /// handler (or fatalError) is reached.  Must be >= 1.
  unsigned RetryAttempts = 1000;
  /// After this many futile waits, the mutator returns its thread-local
  /// cache chains to the heap before the next wait, so memory hoarded in
  /// per-thread caches becomes allocatable by anyone.  0 flushes before
  /// the first wait.
  unsigned EmergencyAfter = 3;
  /// Last-resort hook; when absent, an exhausted ladder aborts the process
  /// (the pre-hardening behavior).
  OomHandler Handler;
};

/// One registered program thread.
class Mutator {
public:
  /// Registers this mutator; it adopts the collector's current status.
  Mutator(Heap &H, CollectorState &S, MutatorRegistry &Registry);

  /// Drains the allocation caches back to the heap and deregisters.
  /// The shadow stack must be empty by then.
  ~Mutator();

  Mutator(const Mutator &) = delete;
  Mutator &operator=(const Mutator &) = delete;

  //===--------------------------------------------------------------------===
  // Allocation (the paper's "create" routine).
  //===--------------------------------------------------------------------===

  /// Allocates an object with \p RefSlots cleared pointer fields and
  /// \p DataBytes of uninitialized scalar payload.  The object is created
  /// with the current allocation color (Section 5: there is no create/sweep
  /// race to resolve).  On heap exhaustion it runs the escalation ladder:
  /// wait for collections via the MemoryWaiter (with the configured retry
  /// budget), flush the thread-local caches after a few futile waits, and
  /// finally consult the installed OomHandler.  Returns NullRef only if the
  /// handler chose GiveUp; with no handler an exhausted ladder aborts the
  /// process (the classic behavior).
  ObjectRef allocate(uint32_t RefSlots, uint32_t DataBytes, uint16_t Tag = 0);

  /// Non-blocking variant of allocate: a single pass over the thread cache
  /// and the shared heap, returning NullRef on exhaustion instead of
  /// waiting, escalating or aborting.  For embedders that prefer to handle
  /// memory pressure at the call site.
  ObjectRef tryAllocate(uint32_t RefSlots, uint32_t DataBytes,
                        uint16_t Tag = 0);

  /// Installs the back-pressure hook (done by core/Runtime).
  void setMemoryWaiter(MemoryWaiter *Waiter) { this->Waiter = Waiter; }

  /// Installs the out-of-memory policy (done by core/Runtime; the config
  /// must outlive the mutator).  Null restores the built-in defaults.
  void setOomConfig(const OomConfig *Config) { Oom = Config; }

  /// Connects this mutator to the observability subsystem (done by
  /// core/Runtime): latency samples go to \p Registry's histograms, and —
  /// with tracing enabled — a per-mutator event ring is created for
  /// HandshakeAck and AllocStall events.  Must be called before the first
  /// handshake response if events are to be complete; safe to skip (unit
  /// tests construct bare mutators).
  void setObsRegistry(ObsRegistry *Registry) {
    Obs = Registry;
    Ring = Registry ? Registry->addMutatorRing() : nullptr;
  }

  //===--------------------------------------------------------------------===
  // Heap accesses.
  //===--------------------------------------------------------------------===

  /// Pointer store heap[x, i] <- y through the write barrier (the Update
  /// routine of Figure 1 or Figure 4, selected by the barrier kind).
  void writeRef(ObjectRef X, uint32_t SlotIdx, ObjectRef Y);

  /// Pointer load heap[x, i].  Reads need no barrier in DLG.
  ObjectRef readRef(ObjectRef X, uint32_t SlotIdx) const {
    return loadRefSlot(H, X, SlotIdx);
  }

  //===--------------------------------------------------------------------===
  // Shadow stack (local roots).  Stack writes need no barrier (Section 2).
  //===--------------------------------------------------------------------===

  /// Pushes a local root; returns its index.
  size_t pushRoot(ObjectRef Ref) {
    Stack.push_back(Ref);
    return Stack.size() - 1;
  }

  /// Pops the top \p Count roots.
  void popRoots(size_t Count = 1) {
    GENGC_ASSERT(Count <= Stack.size(), "root stack underflow");
    Stack.resize(Stack.size() - Count);
  }

  ObjectRef root(size_t Index) const {
    GENGC_ASSERT(Index < Stack.size(), "root index out of range");
    return Stack[Index];
  }
  void setRoot(size_t Index, ObjectRef Ref) {
    GENGC_ASSERT(Index < Stack.size(), "root index out of range");
    Stack[Index] = Ref;
  }
  size_t numRoots() const { return Stack.size(); }

  //===--------------------------------------------------------------------===
  // Handshake cooperation.
  //===--------------------------------------------------------------------===

  /// Checks for a pending handshake and responds (the paper's "cooperate").
  /// Embedding programs call this regularly between operations.
  void cooperate();

  /// Marks this mutator blocked: while blocked it promises not to touch the
  /// heap or its shadow stack, and the collector responds to handshakes on
  /// its behalf.  Used around long waits (locks, barriers, sleeps).
  void enterBlocked();

  /// Leaves the blocked state and catches up on any missed handshake.
  void exitBlocked();

  /// This mutator's perception of the handshake status.
  HandshakeStatus status() const {
    return StatusM.load(std::memory_order_acquire);
  }

  /// Collector side: if this mutator is blocked, cooperates on its behalf.
  /// Called with the registry lock held while waiting out a handshake.
  void helpIfBlocked();

  /// Watchdog escalation: adopts the posted status on this thread's behalf
  /// WITHOUT performing the protocol work a real response owes — no root
  /// shading, and LastResponseNanos deliberately stays (the thread itself
  /// never responded).  Only sound because the caller is committed to
  /// aborting the cycle and discarding its trace; see
  /// HandshakeDriver::wait.  Relies on the same assumption BlockedScope
  /// makes of a quiet thread: one that has stopped calling cooperate() is
  /// not mid-heap-operation holding CoopMutex.
  void forceAdopt();

  /// Watchdog side: snapshots this mutator's responsiveness state for a
  /// stall report.  All reads are relaxed — the snapshot is advisory.
  MutatorDiag diag() const {
    MutatorDiag D;
    D.Adopted = StatusM.load(std::memory_order_relaxed);
    D.Blocked = Blocked.load(std::memory_order_relaxed);
    D.LastResponseNanos = LastResponseNanos.load(std::memory_order_relaxed);
    D.AllocatedObjects = AllocObjects.load(std::memory_order_relaxed);
    return D;
  }

  //===--------------------------------------------------------------------===
  // Statistics.
  //===--------------------------------------------------------------------===

  GrayCounters &grayCounters() { return Grays; }

  /// Registration id (assigned by the registry; stable, never reused).
  uint64_t id() const { return Id; }

  uint64_t allocatedObjects() const {
    return AllocObjects.load(std::memory_order_relaxed);
  }
  uint64_t allocatedBytes() const {
    return AllocBytes.load(std::memory_order_relaxed);
  }

  /// Every interval this thread spent NOT running because of the collector,
  /// split into true stop-the-world parks (always zero under the on-the-fly
  /// collectors — the paper's headline property) and voluntary stalls
  /// (allocation throttling, out-of-memory waits).
  struct PauseStats {
    uint64_t Count = 0;
    uint64_t TotalNanos = 0;
    uint64_t MaxNanos = 0;
    uint64_t StwCount = 0;
    uint64_t StwMaxNanos = 0;
  };
  PauseStats pauseStats() const {
    return {PauseCount.load(std::memory_order_relaxed),
            PauseTotalNanos.load(std::memory_order_relaxed),
            PauseMaxNanos.load(std::memory_order_relaxed),
            StwPauseCount.load(std::memory_order_relaxed),
            StwPauseMaxNanos.load(std::memory_order_relaxed)};
  }

  /// Records a collector-induced stall of \p Nanos; \p StopTheWorld marks
  /// a true world-stop park rather than a voluntary stall.
  void recordPause(uint64_t Nanos, bool StopTheWorld = false);

  /// Parks until StopWorld clears (a stopped-world Collector::runCycle),
  /// publishing the stop epoch it is parked for.  Called from cooperate();
  /// public so tests can drive the protocol directly.
  void parkForStopTheWorld();

  /// Collector side: whether this mutator is stopped for the pause with
  /// stop epoch \p Epoch — parked for it, or blocked (read under
  /// CoopMutex, so a thread leaving the blocked state sees StopWorld and
  /// parks).
  bool stoppedFor(uint64_t Epoch);

  /// Collector side, world stopped and colors toggled: shades this
  /// stopped thread's clear-colored roots, under CoopMutex.  No untraced
  /// object carries the allocation color, because the toggle came after
  /// every thread stopped, so the shade is complete.  A forced thread
  /// counts as stopped under forceAdopt's quiet-thread assumption.
  void shadeRootsForStw();

private:
  /// Responds to the pending handshake.  CoopMutex must be held.
  /// \p Helped marks a response made by the collector on this thread's
  /// behalf (observability only).
  void cooperateLocked(bool Helped = false);

  /// Marks every shadow-stack entry gray (response to the 3rd handshake).
  void markOwnRoots();

  /// Stalls while a collection is in progress and the during-cycle
  /// allocation budget is exhausted (see CollectorState::ThrottleBytes).
  void maybeThrottleAllocation();

  /// Shared body of allocate / tryAllocate; \p MayBlock selects between the
  /// escalation ladder and the single-pass NullRef-on-exhaustion contract.
  ObjectRef allocateImpl(uint32_t RefSlots, uint32_t DataBytes, uint16_t Tag,
                         bool MayBlock);

  /// Refills the cache of \p ClassIdx; \returns false on exhaustion (only
  /// possible when \p MayBlock is false or the OomHandler gave up).
  bool refillCache(unsigned ClassIdx, bool MayBlock);

  /// Allocation slow path for objects above MaxSmallObjectBytes; NullRef on
  /// exhaustion under the same contract as refillCache.
  ObjectRef allocateLarge(uint32_t Bytes, bool MayBlock);

  /// The out-of-memory escalation ladder shared by the two slow paths.
  /// Calls \p TryOnce() until it succeeds, interleaving waitForMemory
  /// rounds, a cache flush (sparing \p ExceptClass) on the emergency rung
  /// and finally the OomHandler.  Defined in Mutator.cpp; both callers live
  /// there.
  template <typename TryFn>
  bool runOomLadder(bool MayBlock, bool Large, uint64_t RequestBytes,
                    unsigned ExceptClass, TryFn TryOnce,
                    const char *NoWaiterMsg, const char *ExhaustedMsg);

  /// Returns every thread-local chain — active cache AND parked spares —
  /// except \p ExceptClass's cache to the central lists (the emergency rung
  /// of the ladder).  A later refill of the class reads its list before
  /// carving or reporting exhaustion, so flushed chains can never be
  /// stranded behind an exhaustion verdict.
  void flushLocalCaches(unsigned ExceptClass);

  Heap &H;
  CollectorState &State;
  MutatorRegistry &Registry;
  MemoryWaiter *Waiter = nullptr;

  /// Out-of-memory policy; null means built-in defaults (see OomConfig).
  const OomConfig *Oom = nullptr;

  /// Observability hookup (see setObsRegistry); null for bare mutators.
  /// Ring is single-producer by protocol: this thread emits while running
  /// (allocation stalls) or under CoopMutex (handshake responses), the
  /// collector emits only under CoopMutex while this thread is Blocked,
  /// and the Blocked transitions themselves happen under CoopMutex.
  ObsRegistry *Obs = nullptr;
  EventRing *Ring = nullptr;

  std::atomic<HandshakeStatus> StatusM{HandshakeStatus::Async};

  /// Serializes handshake responses between the mutator and a helping
  /// collector (when blocked).
  std::mutex CoopMutex;

  /// Whether this thread has declared itself blocked.  Written under
  /// CoopMutex (the protocol reads are all lock-protected too); atomic so
  /// the watchdog's diag() snapshot can read it without taking the mutex
  /// of a possibly-wedged thread.
  std::atomic<bool> Blocked{false};

  /// nowNanos() of this thread's most recent handshake response or blocked
  /// transition; 0 until the first one.  Watchdog diagnostics only.
  std::atomic<uint64_t> LastResponseNanos{0};

  /// The CollectorState::StopEpoch this thread is parked for; 0 while not
  /// parked (epochs start at 1).
  std::atomic<uint64_t> StwParkedEpoch{0};

  std::vector<ObjectRef> Stack;
  Heap::CellChain Cache[NumSizeClasses];

  /// Registration id (written by MutatorRegistry::add under its lock,
  /// before this thread allocates).
  uint64_t Id = 0;

  /// Compile-time ceiling on HeapConfig::RefillBatchMax (sizes Spares).
  static constexpr unsigned MaxRefillBatch = 16;

  /// Chains a batched refill fetched beyond the one installed in Cache;
  /// consumed LIFO by later refills of the class without touching a lock.
  /// At most MaxRefillBatch - 1 entries are ever parked (a refill fetches
  /// only when the class's spares are gone).
  Heap::CellChain Spares[NumSizeClasses][MaxRefillBatch];
  uint8_t SpareCount[NumSizeClasses] = {};

  /// Adaptive per-class central-refill batch in [1, RefillBatchMax]:
  /// doubled when consecutive central fetches are close together (the
  /// allocation-count gap is small relative to the cells the last fetch
  /// supplied), halved when far apart.  Counts, not clocks, so a
  /// deterministic allocation sequence adapts deterministically.
  uint8_t Batch[NumSizeClasses];
  uint64_t LastRefillAllocs[NumSizeClasses] = {};
  uint32_t LastRefillCells[NumSizeClasses] = {};

  GrayCounters Grays;
  std::atomic<uint64_t> AllocObjects{0};
  std::atomic<uint64_t> AllocBytes{0};
  std::atomic<uint64_t> PauseCount{0};
  std::atomic<uint64_t> PauseTotalNanos{0};
  std::atomic<uint64_t> PauseMaxNanos{0};
  std::atomic<uint64_t> StwPauseCount{0};
  std::atomic<uint64_t> StwPauseMaxNanos{0};

  friend class MutatorRegistry;
};

/// RAII wrapper for Mutator::enterBlocked / exitBlocked.
class BlockedScope {
public:
  explicit BlockedScope(Mutator &M) : M(M) { M.enterBlocked(); }
  ~BlockedScope() { M.exitBlocked(); }
  BlockedScope(const BlockedScope &) = delete;
  BlockedScope &operator=(const BlockedScope &) = delete;

private:
  Mutator &M;
};

} // namespace gengc

#endif // GENGC_RUNTIME_MUTATOR_H
