//===- heap/Heap.cpp - Non-moving segmented heap ---------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"

#include <thread>

#include "support/MathExtras.h"

using namespace gengc;

/// Resolves HeapConfig::AllocShards: 0 means "size from the machine",
/// rounded up to a power of two and capped so HomeShard fits its byte.
static unsigned resolveShardCount(uint32_t Configured) {
  if (Configured != 0) {
    GENGC_ASSERT(isPowerOf2(uint64_t(Configured)) && Configured <= 256,
                 "AllocShards must be a power of two in [1, 256]");
    return Configured;
  }
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores < 2)
    return 1;
  unsigned Shards = 1;
  while (Shards < Cores && Shards < 64)
    Shards <<= 1;
  return Shards;
}

Heap::Heap(const HeapConfig &Config)
    : Config(Config), Arena(new std::atomic<uint32_t>[Config.HeapBytes >> 2]),
      Colors(Config.HeapBytes, GranuleShift),
      Remembered(Config.HeapBytes, GranuleShift),
      Cards(Config.HeapBytes, Config.CardBytes), Ages(Config.HeapBytes),
      Blocks(Config.HeapBytes >> BlockShift) {
  GENGC_ASSERT(Config.HeapBytes >= 2 * BlockBytes,
               "heap needs at least two blocks (one is reserved)");
  GENGC_ASSERT((Config.HeapBytes & (BlockBytes - 1)) == 0,
               "heap size must be a multiple of the block size");

  NumShards = resolveShardCount(Config.AllocShards);
  ShardShift = 64;
  for (unsigned S = NumShards; S > 1; S >>= 1)
    --ShardShift;
  Shards.reset(new CentralShard[size_t(NumSizeClasses) * NumShards]);
  Stash.reset(new std::vector<CellChain>[Blocks.size()]);

  // Block 0 is reserved so that arena offset 0 can act as the null
  // reference.  Push the rest highest-first so pops come out in ascending
  // address order (low addresses used first, for determinism).  The stack
  // never holds more than this, so pushes under BlockMutex never allocate.
  Blocks[0].State = BlockState::Reserved;
  FreeBlocks.reserve(Blocks.size() - 1);
  for (uint32_t I = uint32_t(Blocks.size()); I-- > 1;)
    FreeBlocks.push_back(I);
  FreeBlockCount.store(FreeBlocks.size(), std::memory_order_relaxed);

  Pages.registerRegion(Region::Arena, Config.HeapBytes);
  Pages.registerRegion(Region::ColorTable, Colors.size());
  Pages.registerRegion(Region::CardTable, Cards.numCards());
  Pages.registerRegion(Region::CardSummary, Cards.numSummaryChunks());
  Pages.registerRegion(Region::AgeTable, Ages.size());
  Pages.setEnabled(Config.TrackPages);
}

Heap::~Heap() = default;

//===----------------------------------------------------------------------===//
// Sharded central free lists.
//===----------------------------------------------------------------------===//

bool Heap::carveBlock(unsigned ClassIdx, unsigned HomeShard) {
  std::unique_lock Locked(BlockMutex);
  if (FreeBlocks.empty())
    return false;
  uint32_t BlockIdx = FreeBlocks.back();
  FreeBlocks.pop_back();
  FreeBlockCount.fetch_sub(1, std::memory_order_relaxed);
  BlockDescriptor &Desc = Blocks[BlockIdx];
  // Fields first, State last: GC lanes read descriptors without the lock
  // and are promised valid fields once they observe an object-holding
  // State.
  Desc.SizeClassIdx = uint8_t(ClassIdx);
  Desc.CellBytes = sizeClassBytes(ClassIdx);
  Desc.CellRecip = uint32_t(divideCeil(1ull << 32, Desc.CellBytes));
  Desc.NumCells = uint32_t(BlockBytes / Desc.CellBytes);
  Desc.HomeShard = uint8_t(HomeShard);
  Desc.State.store(BlockState::SizeClass, std::memory_order_release);
  Locked.unlock();

  // Thread all cells into chains of at most ChainCells and queue them on
  // the home shard (whose mutex the caller holds).
  uint64_t Base = uint64_t(BlockIdx) << BlockShift;
  CentralShard &Sh = shard(ClassIdx, HomeShard);
  CellChain Chain;
  for (uint32_t Cell = Desc.NumCells; Cell-- > 0;) {
    ObjectRef Ref = ObjectRef(Base + uint64_t(Cell) * Desc.CellBytes);
    setChainNext(Ref, Chain.Head);
    Chain.Head = Ref;
    if (++Chain.Count == Config.ChainCells) {
      Sh.Chains.push_back(Chain);
      Chain = CellChain();
    }
  }
  if (Chain.Count != 0)
    Sh.Chains.push_back(Chain);
  return true;
}

Heap::CellChain Heap::popFreeChain(unsigned ClassIdx, unsigned HomeShard) {
  CellChain Chain;
  popFreeChains(ClassIdx, HomeShard, 1, &Chain);
  return Chain;
}

unsigned Heap::popFreeChains(unsigned ClassIdx, unsigned HomeShard,
                             unsigned MaxChains, CellChain *Out,
                             RefillStats *Stats) {
  GENGC_ASSERT(ClassIdx < NumSizeClasses, "size class out of range");
  GENGC_ASSERT(HomeShard < NumShards && MaxChains >= 1,
               "refill shard/batch out of range");
  unsigned Taken = 0;

  // Takes up to MaxChains - Taken chains from the back of Sh's inventory.
  // The shard's mutex must be held.
  auto TakeLocked = [&](CentralShard &Sh, unsigned Limit) {
    while (Taken < Limit && !Sh.Chains.empty()) {
      Out[Taken++] = Sh.Chains.back();
      Sh.Chains.pop_back();
    }
  };

  {
    CentralShard &Home = shard(ClassIdx, HomeShard);
    std::unique_lock Locked(Home.Mutex, std::try_to_lock);
    if (!Locked.owns_lock()) {
      if (Stats)
        Stats->Contended = true;
      Contentions.fetch_add(1, std::memory_order_relaxed);
      Locked.lock();
    }
    TakeLocked(Home, MaxChains);
  }

  if (Taken == 0 && NumShards > 1) {
    // Home shard dry: probe the neighbors in ring order.  Bounded steal —
    // at most half a victim's inventory — so a refill storm from one dry
    // shard cannot strip a busy neighbor bare.
    for (unsigned Offset = 1; Offset < NumShards && Taken == 0; ++Offset) {
      unsigned Victim = (HomeShard + Offset) & (NumShards - 1);
      CentralShard &Sh = shard(ClassIdx, Victim);
      std::scoped_lock Locked(Sh.Mutex);
      if (Stats)
        ++Stats->ShardsProbed;
      unsigned Budget = unsigned(Sh.Chains.size() + 1) / 2;
      TakeLocked(Sh, std::min(MaxChains, std::max(Budget, 1u)));
      if (Taken != 0 && Stats)
        Stats->StolenFrom = int32_t(Victim);
    }
    if (Taken != 0)
      Steals.fetch_add(1, std::memory_order_relaxed);
  }

  if (Taken == 0) {
    // Lazy sweep: before growing the heap's footprint, reclaim a block the
    // last cycle published as needs-sweep.  The engine deposits the block's
    // freed cells into the caller's home shard, where the re-take below is
    // the first to look; a swept block can still yield nothing (every cell
    // live, or a racing refill took the deposit), so keep claiming until
    // chains appear or the class's needs-sweep stock is dry.  Exhaustion —
    // returning 0 below — is therefore only declared once lazy reclamation
    // has nothing left either.
    if (LazySweeper *Lazy = LazyHook.load(std::memory_order_acquire)) {
      while (Taken == 0 && Lazy->sweepOneBlockFor(ClassIdx, HomeShard)) {
        if (Stats)
          ++Stats->LazySwept;
        CentralShard &Home = shard(ClassIdx, HomeShard);
        std::scoped_lock Locked(Home.Mutex);
        TakeLocked(Home, MaxChains);
      }
    }
  }

  if (Taken == 0) {
    // Every shard is empty: carve a fresh block into the home shard.  The
    // shard lock is re-taken first and the inventory re-checked, so two
    // racing refills of the same shard carve at most one block between
    // them.
    CentralShard &Home = shard(ClassIdx, HomeShard);
    std::scoped_lock Locked(Home.Mutex);
    if (Home.Chains.empty()) {
      if (!carveBlock(ClassIdx, HomeShard))
        return 0;
      Carves.fetch_add(1, std::memory_order_relaxed);
      if (Stats)
        Stats->Carved = true;
    }
    TakeLocked(Home, MaxChains);
  }

  uint64_t Cells = 0;
  for (unsigned I = 0; I < Taken; ++I)
    Cells += Out[I].Count;
  uint64_t Bytes = Cells * sizeClassBytes(ClassIdx);
  UsedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  AllocSinceGc.fetch_add(Bytes, std::memory_order_relaxed);
  Refills.fetch_add(1, std::memory_order_relaxed);
  return Taken;
}

void Heap::pushFreeChain(unsigned ClassIdx, CellChain Chain,
                         unsigned HomeShard) {
  GENGC_ASSERT(ClassIdx < NumSizeClasses, "size class out of range");
  GENGC_ASSERT(HomeShard < NumShards, "shard out of range");
  if (Chain.Count == 0)
    return;
  uint64_t Bytes = uint64_t(Chain.Count) * sizeClassBytes(ClassIdx);
  if (LazyHook.load(std::memory_order_relaxed) != nullptr) {
    // Deferred-sweep routing: a chain whose block is published (or mid-
    // sweep) must not re-enter the central lists until the block is swept —
    // park it in the block's stash instead; the claimant re-deposits it.
    // Under the lazy policy every chain is single-block (carve and the
    // per-block sweep both produce such chains, and thread caches only ever
    // shorten them), so the head cell identifies the chain's block.  The
    // re-check under StashMutex pairs with the claimant's markBlockSwept-
    // before-takePendingStash order: an append the claimant's take misses
    // can only happen after the take released StashMutex, by which point
    // this re-check observes Swept and pushes normally.
    const BlockDescriptor &Desc = Blocks[blockIndexOf(Chain.Head)];
    if (Desc.Sweep.load(std::memory_order_acquire) !=
        uint8_t(BlockSweep::Swept)) {
      std::scoped_lock Locked(StashMutex);
      if (Desc.Sweep.load(std::memory_order_acquire) !=
          uint8_t(BlockSweep::Swept)) {
        Stash[blockIndexOf(Chain.Head)].push_back(Chain);
        UsedBytes.fetch_sub(Bytes, std::memory_order_relaxed);
        return;
      }
    }
  }
  {
    CentralShard &Sh = shard(ClassIdx, HomeShard);
    std::scoped_lock Locked(Sh.Mutex);
    Sh.Chains.push_back(Chain);
  }
  // UsedBytes can transiently underflow-race with popFreeChains only in the
  // sense of ordinary relaxed-counter imprecision; totals stay consistent.
  UsedBytes.fetch_sub(Bytes, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Lazy sweep (SweepPolicy::Lazy).
//===----------------------------------------------------------------------===//

void Heap::publishNeedsSweep(uint32_t BlockIdx, uint32_t Epoch) {
  BlockDescriptor &Desc = Blocks[BlockIdx];
  GENGC_ASSERT(Desc.State.load(std::memory_order_acquire) ==
                   BlockState::SizeClass,
               "publishNeedsSweep on a non-size-class block");
  GENGC_ASSERT(Desc.Sweep.load(std::memory_order_acquire) ==
                   uint8_t(BlockSweep::Swept),
               "publishNeedsSweep on an already-published block");
  // Epoch before state: a reader that observes NeedsSweep sees the epoch
  // the block must be swept under.
  Desc.SweepEpoch.store(Epoch, std::memory_order_relaxed);
  Desc.Sweep.store(uint8_t(BlockSweep::NeedsSweep), std::memory_order_release);
}

void Heap::enqueueNeedsSweep(uint32_t BlockIdx) {
  std::scoped_lock Locked(NeedsSweepMutex);
  NeedsSweepStacks[Blocks[BlockIdx].SizeClassIdx].push_back(BlockIdx);
  NeedsSweepBlocks.fetch_add(1, std::memory_order_release);
  LazyPublished.fetch_add(1, std::memory_order_relaxed);
}

uint32_t Heap::claimNeedsSweepBlock(unsigned ClassIdx) {
  GENGC_ASSERT(ClassIdx < NumSizeClasses, "size class out of range");
  std::scoped_lock Locked(NeedsSweepMutex);
  std::vector<uint32_t> &Stack = NeedsSweepStacks[ClassIdx];
  if (Stack.empty())
    return 0;
  uint32_t Idx = Stack.back();
  Stack.pop_back();
  // The pop is the block's only claim path, so it is still as published.
  std::atomic<uint8_t> &Sweep = Blocks[Idx].Sweep;
  GENGC_ASSERT(Sweep.load(std::memory_order_acquire) ==
                   uint8_t(BlockSweep::NeedsSweep),
               "needs-sweep stack holds a block that is not NeedsSweep");
  Sweep.store(uint8_t(BlockSweep::Sweeping), std::memory_order_release);
  SweepingBlocks.fetch_add(1, std::memory_order_release);
  NeedsSweepBlocks.fetch_sub(1, std::memory_order_release);
  return Idx;
}

void Heap::markBlockSwept(uint32_t BlockIdx) {
  GENGC_ASSERT(Blocks[BlockIdx].Sweep.load(std::memory_order_acquire) ==
                   uint8_t(BlockSweep::Sweeping),
               "markBlockSwept on an unclaimed block");
  Blocks[BlockIdx].Sweep.store(uint8_t(BlockSweep::Swept),
                               std::memory_order_release);
}

void Heap::finishBlockSweep(bool MutatorContext) {
  (MutatorContext ? LazyMutatorSwept : LazyResidueSwept)
      .fetch_add(1, std::memory_order_relaxed);
  // acq_rel: the residue drain spins on sweepingBlockCount() == 0 before
  // the collector toggles colors, and must observe everything this sweep
  // deposited.
  SweepingBlocks.fetch_sub(1, std::memory_order_acq_rel);
}

void Heap::drainFreeListsToStashes() {
  for (unsigned ClassIdx = 0; ClassIdx < NumSizeClasses; ++ClassIdx) {
    for (unsigned S = 0; S < NumShards; ++S) {
      CentralShard &Sh = shard(ClassIdx, S);
      std::scoped_lock Locked(Sh.Mutex);
      size_t Keep = 0;
      for (size_t I = 0; I < Sh.Chains.size(); ++I) {
        CellChain Chain = Sh.Chains[I];
        uint32_t BlockIdx = blockIndexOf(Chain.Head);
        if (Blocks[BlockIdx].Sweep.load(std::memory_order_acquire) !=
            uint8_t(BlockSweep::Swept)) {
          std::scoped_lock StashLocked(StashMutex);
          Stash[BlockIdx].push_back(Chain);
        } else {
          Sh.Chains[Keep++] = Chain;
        }
      }
      Sh.Chains.resize(Keep);
    }
  }
}

std::vector<Heap::CellChain> Heap::takePendingStash(uint32_t BlockIdx) {
  std::scoped_lock Locked(StashMutex);
  std::vector<CellChain> Taken = std::move(Stash[BlockIdx]);
  Stash[BlockIdx].clear();
  return Taken;
}

void Heap::repushFreeChain(unsigned ClassIdx, CellChain Chain,
                           unsigned HomeShard) {
  GENGC_ASSERT(ClassIdx < NumSizeClasses && HomeShard < NumShards,
               "repush shard/class out of range");
  if (Chain.Count == 0)
    return;
  CentralShard &Sh = shard(ClassIdx, HomeShard);
  std::scoped_lock Locked(Sh.Mutex);
  Sh.Chains.push_back(Chain);
}

bool Heap::freeChainParked(unsigned ClassIdx, unsigned Shard,
                           ObjectRef Head) const {
  const CentralShard &Sh = shard(ClassIdx, Shard);
  std::scoped_lock Locked(Sh.Mutex);
  for (const CellChain &Chain : Sh.Chains)
    if (Chain.Head == Head)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Large objects (whole-block runs).
//===----------------------------------------------------------------------===//

ObjectRef Heap::allocateLarge(uint32_t Bytes) {
  GENGC_ASSERT(Bytes > MaxSmallObjectBytes, "large alloc below threshold");
  uint32_t Needed = uint32_t(divideCeil(Bytes, BlockBytes));
  std::scoped_lock Locked(BlockMutex);

  // First-fit scan for a contiguous run of free blocks.  Linear in the
  // number of blocks, but large allocations are rare in all workloads.
  uint32_t RunStart = 0, RunLen = 0;
  for (uint32_t I = 1; I < Blocks.size() && RunLen < Needed; ++I) {
    if (Blocks[I].State.load(std::memory_order_relaxed) != BlockState::Free)
      RunLen = 0;
    else if (RunLen++ == 0)
      RunStart = I;
  }
  if (RunLen < Needed)
    return NullRef;

  for (uint32_t I = RunStart; I < RunStart + Needed; ++I) {
    BlockDescriptor &Desc = Blocks[I];
    // Fields first, State last (same lock-free reader contract as carving).
    Desc.LargeBytes = I == RunStart ? Bytes : 0;
    Desc.RunBlocks = I == RunStart ? Needed : 0;
    Desc.RunStart = RunStart;
    Desc.State.store(I == RunStart ? BlockState::LargeStart
                                   : BlockState::LargeCont,
                     std::memory_order_release);
  }
  std::erase_if(FreeBlocks, [&](uint32_t I) {
    return I >= RunStart && I < RunStart + Needed;
  });
  FreeBlockCount.fetch_sub(Needed, std::memory_order_relaxed);

  uint64_t RunBytes = uint64_t(Needed) * BlockBytes;
  UsedBytes.fetch_add(RunBytes, std::memory_order_relaxed);
  AllocSinceGc.fetch_add(RunBytes, std::memory_order_relaxed);
  return ObjectRef(uint64_t(RunStart) << BlockShift);
}

void Heap::freeLargeRun(uint32_t BlockIdx) {
  std::scoped_lock Locked(BlockMutex);
  BlockDescriptor &Start = Blocks[BlockIdx];
  GENGC_ASSERT(Start.State == BlockState::LargeStart,
               "freeLargeRun on a non-run block");
  uint32_t Run = Start.RunBlocks;
  // Scrub the run's dirty cards: the object is garbage, so no mutator can
  // be marking them, and leaving them set would make freed space look
  // scan-worthy to the allocated-range card-scan filter's linear fallback
  // while the summary path (correctly) skips it.  Summary bytes stay set —
  // a chunk can straddle the run boundary and guard a neighbor's cards.
  Cards.clearCardsOverRange(uint64_t(BlockIdx) << BlockShift,
                            uint64_t(BlockIdx + Run) << BlockShift);
  for (uint32_t I = BlockIdx; I < BlockIdx + Run; ++I) {
    BlockDescriptor &Desc = Blocks[I];
    Desc.LargeBytes = 0;
    Desc.RunBlocks = 0;
    Desc.RunStart = 0;
    Desc.State.store(BlockState::Free, std::memory_order_release);
    FreeBlocks.push_back(I);
  }
  FreeBlockCount.fetch_add(Run, std::memory_order_relaxed);
  UsedBytes.fetch_sub(uint64_t(Run) * BlockBytes, std::memory_order_relaxed);
}

uint32_t Heap::storageBytesOf(ObjectRef Ref) const {
  const BlockDescriptor &Desc = Blocks[blockIndexOf(Ref)];
  switch (Desc.State) {
  case BlockState::SizeClass:
    return Desc.CellBytes;
  case BlockState::LargeStart:
    return uint32_t(uint64_t(Desc.RunBlocks) * BlockBytes);
  case BlockState::LargeCont:
  case BlockState::Free:
  case BlockState::Reserved:
    break;
  }
  GENGC_UNREACHABLE("storageBytesOf on a ref outside any object block");
}

size_t Heap::countAllocatedCards() const {
  size_t CardsPerBlock = size_t(BlockBytes / Cards.cardBytes());
  size_t Allocated = 0;
  for (const BlockDescriptor &Desc : Blocks)
    if (Desc.State != BlockState::Free && Desc.State != BlockState::Reserved)
      Allocated += CardsPerBlock;
  return Allocated;
}
