//===- heap/Heap.cpp - Non-moving segmented heap ---------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"

#include "support/MathExtras.h"

using namespace gengc;

Heap::Heap(const HeapConfig &Config)
    : Config(Config), Arena(Config.HeapBytes >> 2),
      Colors(Config.HeapBytes, GranuleShift),
      Remembered(Config.HeapBytes, GranuleShift),
      Cards(Config.HeapBytes, Config.CardBytes), Ages(Config.HeapBytes),
      Blocks(Config.HeapBytes >> BlockShift) {
  GENGC_ASSERT(Config.HeapBytes >= 2 * BlockBytes,
               "heap needs at least two blocks (one is reserved)");
  GENGC_ASSERT((Config.HeapBytes & (BlockBytes - 1)) == 0,
               "heap size must be a multiple of the block size");

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
// Central free lists.
//===----------------------------------------------------------------------===//

bool Heap::carveBlock(unsigned ClassIdx) {
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
  Desc.State.store(BlockState::SizeClass, std::memory_order_release);
  Locked.unlock();

  // Thread all cells into chains of at most ChainCells and queue them on
  // the class's list (whose mutex the caller holds).
  uint64_t Base = uint64_t(BlockIdx) << BlockShift;
  std::vector<CellChain> &Chains = Lists[ClassIdx].Chains;
  CellChain Chain;
  for (uint32_t Cell = Desc.NumCells; Cell-- > 0;) {
    ObjectRef Ref = ObjectRef(Base + uint64_t(Cell) * Desc.CellBytes);
    setChainNext(Ref, Chain.Head);
    Chain.Head = Ref;
    if (++Chain.Count == Config.ChainCells) {
      Chains.push_back(Chain);
      Chain = CellChain();
    }
  }
  if (Chain.Count != 0)
    Chains.push_back(Chain);
  return true;
}

Heap::CellChain Heap::popFreeChain(unsigned ClassIdx) {
  CellChain Chain;
  popFreeChains(ClassIdx, 1, &Chain);
  return Chain;
}

unsigned Heap::popFreeChains(unsigned ClassIdx, unsigned MaxChains,
                             CellChain *Out, RefillStats *Stats) {
  GENGC_ASSERT(ClassIdx < NumSizeClasses, "size class out of range");
  GENGC_ASSERT(MaxChains >= 1, "refill batch out of range");
  CentralList &List = Lists[ClassIdx];
  unsigned Taken = 0;

  // Takes up to MaxChains chains from the back of the list, whose mutex
  // must be held.
  auto TakeLocked = [&] {
    while (Taken < MaxChains && !List.Chains.empty()) {
      Out[Taken++] = List.Chains.back();
      List.Chains.pop_back();
    }
  };

  {
    std::unique_lock Locked(List.Mutex, std::try_to_lock);
    if (!Locked.owns_lock()) {
      if (Stats)
        Stats->Contended = true;
      Contentions.fetch_add(1, std::memory_order_relaxed);
      Locked.lock();
    }
    TakeLocked();
  }

  if (Taken == 0) {
    // The list is empty: carve a fresh block into it.  The list lock is
    // re-taken first and the inventory re-checked, so two racing refills
    // of the same class carve at most one block between them.
    std::scoped_lock Locked(List.Mutex);
    if (List.Chains.empty()) {
      if (!carveBlock(ClassIdx))
        return 0;
      Carves.fetch_add(1, std::memory_order_relaxed);
    }
    TakeLocked();
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

void Heap::pushFreeChain(unsigned ClassIdx, CellChain Chain) {
  GENGC_ASSERT(ClassIdx < NumSizeClasses, "size class out of range");
  if (Chain.Count == 0)
    return;
  uint64_t Bytes = uint64_t(Chain.Count) * sizeClassBytes(ClassIdx);
  {
    CentralList &List = Lists[ClassIdx];
    std::scoped_lock Locked(List.Mutex);
    List.Chains.push_back(Chain);
  }
  // UsedBytes can transiently underflow-race with popFreeChains only in the
  // sense of ordinary relaxed-counter imprecision; totals stay consistent.
  UsedBytes.fetch_sub(Bytes, std::memory_order_relaxed);
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
