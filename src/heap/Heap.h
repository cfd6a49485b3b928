//===- heap/Heap.h - Non-moving segmented heap ------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap manager underneath both collectors.  It is a non-moving,
/// big-bag-of-pages design:
///
///  - a fixed arena is carved into 64 KiB blocks; a block holds cells of one
///    size class, so a cell's size is a function of its address and sweep
///    can walk the heap without per-object size headers;
///  - objects larger than 8 KiB get whole-block runs;
///  - free cells are threaded into chains (through their first word) and
///    handed to thread-local allocation caches in bulk, so the allocation
///    fast path performs no synchronization — the property DLG requires of
///    the runtime ("a thread-local allocation mechanism necessary to avoid
///    synchronization between threads during object allocation", Section 7);
///  - colors, ages and card marks live in dense side tables (one byte per
///    16-byte granule / card), following the paper's locality argument;
///  - the arena and the side tables are mapped from zero pages
///    (support/ZeroedArray.h), so construction writes nothing and resident
///    memory grows with the blocks the program touches, as the paper's JVM
///    grew its heap toward the 32 MB maximum.
///
/// The heap knows nothing about object layout or the collector's phases;
/// it provides cells, colors and the side tables.  runtime/ObjectModel.h
/// defines headers and slots, and src/gc drives collection.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_HEAP_H
#define GENGC_HEAP_HEAP_H

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "heap/AgeTable.h"
#include "heap/AtomicByteTable.h"
#include "heap/Block.h"
#include "heap/CardTable.h"
#include "heap/Color.h"
#include "heap/PageTouch.h"
#include "heap/Ref.h"
#include "heap/SizeClasses.h"
#include "support/ZeroedArray.h"

namespace gengc {

/// Static configuration of a Heap.
struct HeapConfig {
  /// Total arena size.  The paper ran all benchmarks with a 32 MB maximum
  /// heap; that is our default too.
  uint64_t HeapBytes = 32ull << 20;

  /// Card size for the card-marking write barrier; a power of two in
  /// [16, 4096].  16 is the paper's "object marking", 4096 its "block
  /// marking"; 16 is the paper's final choice (Section 8.5.3).
  uint32_t CardBytes = 16;

  /// Record the pages the collector touches (Figure 15).  Costs a little
  /// collector time, nothing on mutator paths.
  bool TrackPages = false;

  /// Maximum number of cells per free chain handed to a thread-local
  /// allocation cache.  Bounds how much memory an idle thread can hoard.
  uint32_t ChainCells = 256;

  /// Upper bound on the chains a thread-cache refill may transfer under
  /// one acquisition of its size class's list lock.  The per-mutator batch
  /// size adapts within [1, RefillBatchMax] from refill frequency; 1
  /// disables batching.
  uint32_t RefillBatchMax = 8;
};

/// Interface through which the heap's refill path reaches the gc layer's
/// per-block sweep engine under SweepPolicy::Lazy.  The heap layer cannot
/// depend on src/gc, so the collector installs an implementation
/// (gc/LazySweep.h) via Heap::setLazySweeper; under a null hook (the
/// default, and the eager policy) no allocation path sweeps.
class LazySweeper {
public:
  virtual ~LazySweeper() = default;

  /// Claims one needs-sweep block of \p ClassIdx, sweeps it, and deposits
  /// the reclaimed cell chains into the class's central list — where the
  /// calling refill is about to look.  Returns false when no needs-sweep
  /// block of the class remains.
  virtual bool sweepOneBlockFor(unsigned ClassIdx) = 0;
};

/// The arena plus its side tables and free-memory bookkeeping.
class Heap {
public:
  /// log2 of the block size.
  static constexpr unsigned BlockShift = 16;
  /// Block size in bytes (64 KiB).
  static constexpr uint64_t BlockBytes = 1ull << BlockShift;

  /// A chain of free cells of one size class, threaded through each cell's
  /// first word.  The unit of transfer between the central free lists and
  /// the thread-local caches, and the unit in which sweep returns memory.
  struct CellChain {
    ObjectRef Head = NullRef;
    uint32_t Count = 0;
  };

  explicit Heap(const HeapConfig &Config);
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  const HeapConfig &config() const { return Config; }
  uint64_t heapBytes() const { return Config.HeapBytes; }

  //===--------------------------------------------------------------------===
  // Word access.  The arena is typed as an array of atomic 32-bit words so
  // that concurrent mutator stores / collector loads are well-defined.
  //===--------------------------------------------------------------------===

  /// The atomic word at arena byte offset \p Offset (must be 4-aligned).
  std::atomic<uint32_t> &wordAt(uint64_t Offset) {
    GENGC_ASSERT(Offset + 4 <= Config.HeapBytes && (Offset & 3) == 0,
                 "word access out of bounds or misaligned");
    return Arena[Offset >> 2];
  }
  const std::atomic<uint32_t> &wordAt(uint64_t Offset) const {
    GENGC_ASSERT(Offset + 4 <= Config.HeapBytes && (Offset & 3) == 0,
                 "word access out of bounds or misaligned");
    return Arena[Offset >> 2];
  }

  /// Raw address of the arena byte at \p Ref, for software-prefetch hints
  /// only (the tracer warms the header line of upcoming gray objects).
  /// Never dereference through this — all real accesses go through the
  /// atomic wordAt/loadColor accessors.
  const void *prefetchAddress(ObjectRef Ref) const {
    return reinterpret_cast<const unsigned char *>(Arena.data()) + Ref;
  }

  /// Raw address of \p Ref's color-table byte, for prefetch hints only.
  const void *colorPrefetchAddress(ObjectRef Ref) const {
    return reinterpret_cast<const unsigned char *>(Colors.data()) +
           (Ref >> GranuleShift);
  }

  //===--------------------------------------------------------------------===
  // Colors.
  //===--------------------------------------------------------------------===

  /// Loads the color of the object at \p Ref.
  Color loadColor(ObjectRef Ref,
                  std::memory_order MO = std::memory_order_acquire) const {
    return Color(Colors.entryFor(Ref).load(MO));
  }

  /// Stores the color of the object at \p Ref.
  void storeColor(ObjectRef Ref, Color C,
                  std::memory_order MO = std::memory_order_release) {
    Colors.entryFor(Ref).store(uint8_t(C), MO);
  }

  /// Single compare-and-swap on the color byte; updates \p Expected on
  /// failure.  All racing color transitions (mutator graying vs. sweep
  /// freeing) funnel through this, so exactly one side wins.
  bool casColor(ObjectRef Ref, Color &Expected, Color Desired) {
    uint8_t Exp = uint8_t(Expected);
    bool Won = Colors.entryFor(Ref).compare_exchange_strong(
        Exp, uint8_t(Desired), std::memory_order_acq_rel,
        std::memory_order_acquire);
    Expected = Color(Exp);
    return Won;
  }

  //===--------------------------------------------------------------------===
  // Side tables.
  //===--------------------------------------------------------------------===

  CardTable &cards() { return Cards; }
  const CardTable &cards() const { return Cards; }
  /// Direct access to the color side-table (gray-verification scans).
  const AtomicByteTable &colors() const { return Colors; }
  /// Per-object remembered-set membership flags (one byte per granule;
  /// the "extra bit" the paper's JVM lacked, Section 3.1).  The flag makes
  /// re-recording an already-remembered object free of buffer traffic.
  AtomicByteTable &rememberedFlags() { return Remembered; }
  AgeTable &ages() { return Ages; }
  const AgeTable &ages() const { return Ages; }
  PageTouchTracker &pages() { return Pages; }

  //===--------------------------------------------------------------------===
  // Allocation and reclamation.  Each size class owns one central free
  // list: a vector of chains behind one mutex.  A refill takes chains from
  // its class's list and falls back to carving a fresh block (popped from
  // the free-block stack under BlockMutex) when the list is empty — so
  // exhaustion is only declared once no free block remains either.
  //===--------------------------------------------------------------------===

  /// What a popFreeChains call had to do to find memory (observability;
  /// all fields describe this one call).
  struct RefillStats {
    /// The class list's mutex was contended on entry.
    bool Contended = false;
    /// Needs-sweep blocks claimed and swept inline by this refill (lazy
    /// sweep only).
    uint32_t LazySwept = 0;
  };

  /// Pops one chain of free cells of size class \p ClassIdx.  Returns an
  /// empty chain only when the class's list is empty AND no free block
  /// remains (the caller is expected to wait for a collection while
  /// cooperating with handshakes).
  CellChain popFreeChain(unsigned ClassIdx);

  /// Batched variant: pops up to \p MaxChains chains under a single
  /// acquisition of the class list's mutex into \p Out, returning how many
  /// were taken.
  unsigned popFreeChains(unsigned ClassIdx, unsigned MaxChains,
                         CellChain *Out, RefillStats *Stats = nullptr);

  /// Returns a chain of freed cells to the central list of \p ClassIdx
  /// (sweep, or a thread draining its cache).  Cells must already be Blue.
  void pushFreeChain(unsigned ClassIdx, CellChain Chain);

  /// Reads the next-link of free cell \p Cell in a chain.
  ObjectRef chainNext(ObjectRef Cell) const {
    return wordAt(Cell).load(std::memory_order_relaxed);
  }

  /// Writes the next-link of free cell \p Cell.
  void setChainNext(ObjectRef Cell, ObjectRef Next) {
    wordAt(Cell).store(Next, std::memory_order_relaxed);
  }

  /// Allocates a large object of \p Bytes (> MaxSmallObjectBytes) as a run
  /// of whole blocks.  Returns NullRef when no contiguous run is free.
  /// The caller sets the color; the run is handed out Blue.
  ObjectRef allocateLarge(uint32_t Bytes);

  /// Frees the large run whose first block is \p BlockIdx (sweep only).
  void freeLargeRun(uint32_t BlockIdx);

  //===--------------------------------------------------------------------===
  // Lazy sweep (SweepPolicy::Lazy).  The collector's PublishSweep phase
  // stamps every size-class block NeedsSweep instead of sweeping it; a
  // refill that finds the central lists dry claims a published block
  // through the installed LazySweeper and sweeps it inline, and the
  // collector drains whatever the mutators never claimed (the residue) at
  // the start of the next cycle and while idle.  Protocol invariant: a
  // block's cells enter a central free list only after the block's Sweep
  // byte returns to Swept, and chains already parked when a block is
  // published are moved into a per-block stash the claimant re-deposits —
  // so a chain observed in a central list always belongs to a swept block
  // (checked by gc/HeapVerifier).
  //===--------------------------------------------------------------------===

  /// Installs (or clears, with nullptr) the gc-layer sweep hook.  A non-null
  /// hook enables the lazy routing in popFreeChains / pushFreeChain.
  void setLazySweeper(LazySweeper *Hook) {
    LazyHook.store(Hook, std::memory_order_seq_cst);
  }
  bool lazySweepEnabled() const {
    return LazyHook.load(std::memory_order_relaxed) != nullptr;
  }

  /// Stamps size-class block \p BlockIdx needs-sweep under color-toggle
  /// epoch \p Epoch (collector publish only).  The block is not claimable
  /// until enqueueNeedsSweep links it; the gap lets the publisher drain the
  /// central lists first.
  void publishNeedsSweep(uint32_t BlockIdx, uint32_t Epoch);

  /// Pushes published block \p BlockIdx onto its class's needs-sweep stack,
  /// making it claimable (collector publish only, after the free-list
  /// drain).
  void enqueueNeedsSweep(uint32_t BlockIdx);

  /// Pops one needs-sweep block of \p ClassIdx and marks it Sweeping; the
  /// same critical section counts it in sweepingBlockCount(), so a block is
  /// always either on a stack or counted.  Returns 0 when none remains.
  /// The caller must sweep the block and call markBlockSwept +
  /// finishBlockSweep.
  uint32_t claimNeedsSweepBlock(unsigned ClassIdx);

  /// Marks claimed block \p BlockIdx swept.  Must precede pushing any of
  /// its cells to a central list, and precede takePendingStash (the order
  /// that makes a racing pushFreeChain either stash before the take or see
  /// Swept and push normally — never strand a chain).
  void markBlockSwept(uint32_t BlockIdx);

  /// Retires one claimed block after its cells are deposited.
  /// \p MutatorContext selects which counter the sweep is attributed to.
  void finishBlockSweep(bool MutatorContext);

  /// Moves every centrally-parked chain whose block is not Swept into that
  /// block's stash (collector publish only).  Under the lazy policy every
  /// chain holds cells of a single block (carve and per-block sweep both
  /// produce single-block chains), so the chain's head identifies it.
  void drainFreeListsToStashes();

  /// Takes (and empties) block \p BlockIdx's stash of parked chains.
  std::vector<CellChain> takePendingStash(uint32_t BlockIdx);

  /// Re-deposits a stash chain into the central list of \p ClassIdx.
  /// Unlike pushFreeChain this does not touch UsedBytes: stashed cells
  /// were already uncharged when they first left circulation.
  void repushFreeChain(unsigned ClassIdx, CellChain Chain);

  /// True if a chain with head \p Head is currently parked in the central
  /// list of \p ClassIdx (verifier re-confirmation; takes the list mutex).
  bool freeChainParked(unsigned ClassIdx, ObjectRef Head) const;

  /// Blocks currently published and unclaimed / currently claimed mid-sweep.
  uint64_t needsSweepBlockCount() const {
    return NeedsSweepBlocks.load(std::memory_order_acquire);
  }
  uint64_t sweepingBlockCount() const {
    return SweepingBlocks.load(std::memory_order_acquire);
  }

  /// Lifetime lazy-sweep counters (drive MetricsSnapshot).
  uint64_t lazyBlocksPublished() const {
    return LazyPublished.load(std::memory_order_relaxed);
  }
  uint64_t lazyBlocksMutatorSwept() const {
    return LazyMutatorSwept.load(std::memory_order_relaxed);
  }
  uint64_t lazyBlocksResidueSwept() const {
    return LazyResidueSwept.load(std::memory_order_relaxed);
  }

  //===--------------------------------------------------------------------===
  // Geometry.
  //===--------------------------------------------------------------------===

  size_t numBlocks() const { return Blocks.size(); }
  const BlockDescriptor &block(size_t Index) const {
    GENGC_ASSERT(Index < Blocks.size(), "block index out of range");
    return Blocks[Index];
  }

  /// Block index containing arena offset \p Ref.
  uint32_t blockIndexOf(ObjectRef Ref) const {
    GENGC_ASSERT(Ref < Config.HeapBytes, "ref outside arena");
    return uint32_t(Ref >> BlockShift);
  }

  /// Bytes of storage backing the object at \p Ref (the cell size, or the
  /// whole run for a large object).
  uint32_t storageBytesOf(ObjectRef Ref) const;

  /// Invokes \p Fn(ObjectRef) for the start of every cell or large object
  /// that overlaps card \p CardIdx.  Includes free (Blue) cells; the caller
  /// filters by color.
  template <typename Fn>
  void forEachObjectOverlappingCard(size_t CardIdx, Fn Callback) const {
    uint64_t CardStart = Cards.cardStart(CardIdx);
    uint64_t CardEnd = CardStart + Cards.cardBytes();
    uint32_t BlockIdx = uint32_t(CardStart >> BlockShift);
    const BlockDescriptor &Desc = Blocks[BlockIdx];
    switch (Desc.State) {
    case BlockState::Free:
    case BlockState::Reserved:
      return;
    case BlockState::LargeStart:
      Callback(ObjectRef(uint64_t(BlockIdx) << BlockShift));
      return;
    case BlockState::LargeCont:
      Callback(ObjectRef(uint64_t(Desc.RunStart) << BlockShift));
      return;
    case BlockState::SizeClass: {
      uint64_t Base = uint64_t(BlockIdx) << BlockShift;
      uint32_t First = uint32_t(
          (uint64_t(uint32_t(CardStart - Base)) * Desc.CellRecip) >> 32);
      for (uint32_t Cell = First; Cell < Desc.NumCells; ++Cell) {
        uint64_t Start = Base + uint64_t(Cell) * Desc.CellBytes;
        if (Start >= CardEnd)
          break;
        Callback(ObjectRef(Start));
      }
      return;
    }
    }
  }

  /// Number of cards that lie within blocks currently holding objects
  /// (denominator of Figure 22's "percentage of dirty cards from allocated
  /// cards").
  size_t countAllocatedCards() const;

  /// Invokes \p Callback(ByteBegin, ByteEnd) for every maximal run of
  /// consecutive blocks that currently hold objects (SizeClass, LargeStart
  /// or LargeCont — everything except Free and Reserved, the same predicate
  /// as countAllocatedCards).  The card-scan work generator restricts its
  /// summary sweep to these ranges: cards over never-carved or reclaimed
  /// space cannot be dirty (freeLargeRun clears them), so clean empty heap
  /// costs nothing.  Block states are read racily; concurrent carving only
  /// grows the allocated set, and a block carved after its range was passed
  /// holds no old objects a partial collection could need.
  template <typename Fn> void forEachAllocatedBlockRange(Fn Callback) const {
    size_t NumBlocks = Blocks.size();
    for (size_t I = 0; I < NumBlocks;) {
      BlockState S = Blocks[I].State;
      if (S == BlockState::Free || S == BlockState::Reserved) {
        ++I;
        continue;
      }
      size_t Begin = I;
      while (I < NumBlocks && Blocks[I].State != BlockState::Free &&
             Blocks[I].State != BlockState::Reserved)
        ++I;
      Callback(uint64_t(Begin) << BlockShift, uint64_t(I) << BlockShift);
    }
  }

  /// Invokes \p Callback(Ref) for every cell of every SizeClass block and
  /// every LargeStart run base — a single-threaded block-table walk (the
  /// verifier's and the abort unwind's recolor; not a hot path).  Block
  /// states are read with acquire, which the descriptor publication
  /// protocol pairs with (fields before State).
  template <typename Fn> void forEachObjectCell(Fn Callback) const {
    for (size_t I = 0; I < Blocks.size(); ++I) {
      const BlockDescriptor &Desc = Blocks[I];
      BlockState S = Desc.State.load(std::memory_order_acquire);
      uint64_t Base = uint64_t(I) << BlockShift;
      if (S == BlockState::LargeStart)
        Callback(ObjectRef(Base));
      else if (S == BlockState::SizeClass)
        for (uint32_t Cell = 0; Cell < Desc.NumCells; ++Cell)
          Callback(ObjectRef(Base + uint64_t(Cell) * Desc.CellBytes));
    }
  }

  //===--------------------------------------------------------------------===
  // Accounting.
  //===--------------------------------------------------------------------===

  /// Bytes handed out of the central free lists and not yet returned.
  /// Includes cells parked in thread-local caches.
  uint64_t usedBytes() const {
    return UsedBytes.load(std::memory_order_relaxed);
  }

  /// Bytes handed out since the last resetAllocatedSinceGc(); drives the
  /// young-generation trigger (Section 3.3).  A lower bound on true
  /// allocation, exactly like the paper's trigger (their footnote 1).
  uint64_t allocatedSinceGcBytes() const {
    return AllocSinceGc.load(std::memory_order_relaxed);
  }
  void resetAllocatedSinceGc() {
    AllocSinceGc.store(0, std::memory_order_relaxed);
  }

  /// Number of blocks neither carved nor in a large run.
  uint64_t freeBlockCount() const {
    return FreeBlockCount.load(std::memory_order_relaxed);
  }

  //===--------------------------------------------------------------------===
  // Allocation-path counters (relaxed; drive MetricsSnapshot).
  //===--------------------------------------------------------------------===

  /// popFreeChains calls that returned at least one chain.
  uint64_t refillCount() const {
    return Refills.load(std::memory_order_relaxed);
  }
  /// Refills that carved a fresh block because their class's list was
  /// empty.
  uint64_t carveFallbackCount() const {
    return Carves.load(std::memory_order_relaxed);
  }
  /// Refills that found their class list's mutex contended.
  uint64_t listContentionCount() const {
    return Contentions.load(std::memory_order_relaxed);
  }

  //===--------------------------------------------------------------------===
  // Verifier access.  The heap-invariant verifier (gc/HeapVerifier) needs
  // consistent views of structures whose racy reads are fine for the
  // collector but not for an invariant check.
  //===--------------------------------------------------------------------===

  /// Runs \p Callback with BlockMutex held, freezing every block-state
  /// transition into or out of Free (carving, large-run placement and
  /// reclamation) for its duration.  The callback must not allocate from
  /// this heap (lock order: a class list's mutex comes BEFORE BlockMutex —
  /// the carve fallback holds its list lock while it takes BlockMutex, and
  /// nothing ever takes a list lock while holding BlockMutex).
  template <typename Fn> void withBlocksLocked(Fn Callback) const {
    std::scoped_lock Locked(BlockMutex);
    Callback();
  }

  /// Runs \p Callback(ClassIdx, Chain) for every chain parked in every
  /// size class's central free list, holding exactly one list mutex at a
  /// time — the one owning the chains being visited.  Cell links may be
  /// chased through chainNext — a parked chain cannot change while its
  /// list is locked.  The callback must not touch the lists themselves.
  template <typename Fn> void forEachFreeChain(Fn Callback) const {
    for (unsigned ClassIdx = 0; ClassIdx < NumSizeClasses; ++ClassIdx) {
      const CentralList &List = Lists[ClassIdx];
      std::scoped_lock Locked(List.Mutex);
      for (const CellChain &Chain : List.Chains)
        Callback(ClassIdx, Chain);
    }
  }

private:
  /// One size class's central free list.  Cache-line sized so neighboring
  /// classes do not false-share their mutexes.
  struct alignas(64) CentralList {
    mutable std::mutex Mutex;
    std::vector<CellChain> Chains;
  };

  /// Pops a free block and publishes it as a block of \p ClassIdx under
  /// BlockMutex, then threads its cells into chains on the class's list
  /// (whose mutex the caller holds).  Returns false when no block is free.
  bool carveBlock(unsigned ClassIdx);

  HeapConfig Config;
  /// Mapped from zero pages: a block's memory is committed by the first
  /// allocation that touches it, so resident memory follows the heap's use
  /// rather than Config.HeapBytes.
  ZeroedArray<std::atomic<uint32_t>> Arena;

  AtomicByteTable Colors;
  AtomicByteTable Remembered;
  CardTable Cards;
  AgeTable Ages;
  PageTouchTracker Pages;

  std::vector<BlockDescriptor> Blocks;

  /// Guards FreeBlocks and every block-state transition into or out of
  /// Free: carving, large-run placement and reclamation.  Mutable so the
  /// verifier's const freeze (withBlocksLocked) can lock it.
  mutable std::mutex BlockMutex;

  /// Exactly the Free blocks, as a stack whose top is carved next.
  std::vector<uint32_t> FreeBlocks;

  /// The central free lists, one per size class.
  CentralList Lists[NumSizeClasses];

  std::atomic<uint64_t> UsedBytes{0};
  std::atomic<uint64_t> AllocSinceGc{0};
  std::atomic<uint64_t> FreeBlockCount{0};

  std::atomic<uint64_t> Refills{0};
  std::atomic<uint64_t> Carves{0};
  std::atomic<uint64_t> Contentions{0};

  //===-- Lazy sweep ------------------------------------------------------===

  /// The installed gc-layer sweep engine, or null (eager policy).
  std::atomic<LazySweeper *> LazyHook{nullptr};

  /// Guards NeedsSweepStacks and the claim that pops from them; never held
  /// across any other lock acquisition.
  std::mutex NeedsSweepMutex;

  /// Per-size-class stacks of published, unclaimed block indices.  A block
  /// is pushed once per publish and popped by the claim that sweeps it.
  std::vector<uint32_t> NeedsSweepStacks[NumSizeClasses];

  /// Guards every per-block stash in Stash.  The publish drain takes it
  /// inside a class list's mutex, pushFreeChain's routing alone; it is never
  /// held across any other lock acquisition.
  mutable std::mutex StashMutex;

  /// Per-block stashes of chains parked centrally when the block was
  /// published (one vector per block; see drainFreeListsToStashes).
  std::unique_ptr<std::vector<CellChain>[]> Stash;

  std::atomic<uint64_t> NeedsSweepBlocks{0};
  std::atomic<uint64_t> SweepingBlocks{0};
  std::atomic<uint64_t> LazyPublished{0};
  std::atomic<uint64_t> LazyMutatorSwept{0};
  std::atomic<uint64_t> LazyResidueSwept{0};
};

} // namespace gengc

#endif // GENGC_HEAP_HEAP_H
