//===- gc/Sweeper.cpp - Concurrent sweep ------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/Sweeper.h"

#include <algorithm>
#include <atomic>

#include "support/Timer.h"

using namespace gengc;

void Sweeper::processSurvivor(ObjectRef Ref, Color C, uint32_t StorageBytes,
                              SweepMode Mode, uint8_t OldestAge,
                              Color AllocColor, Result &R) {
  ++R.LiveObjectsAfter;
  R.LiveBytesAfter += StorageBytes;
  if (C == AllocColor)
    R.AllocColoredBytes += StorageBytes;
  if (Mode != SweepMode::GenerationalAging)
    return;
  // Figure 5: young survivors rejoin the young generation with the
  // allocation color and one more collection on their age; objects at the
  // threshold stay black (tenured).
  AgeTable &Ages = H.ages();
  uint8_t Age = Ages.ageOf(Ref);
  H.pages().touch(Region::AgeTable, Ref >> GranuleShift);
  if (Age >= OldestAge)
    return;
  H.storeColor(Ref, AllocColor);
  Ages.setAge(Ref, uint8_t(Age + 1));
}

void Sweeper::sweepBlockRange(SweepMode Mode, uint8_t OldestAge,
                              size_t BlockBegin, size_t BlockEnd, Result &R) {
  PageTouchTracker &Pages = H.pages();
  Color Clear = State.clearColor();
  Color Alloc = State.allocationColor();

  for (size_t BlockIdx = BlockBegin; BlockIdx != BlockEnd; ++BlockIdx) {
    const BlockDescriptor &Desc = H.block(BlockIdx);
    uint64_t Base = uint64_t(BlockIdx) << Heap::BlockShift;

    if (Desc.State == BlockState::LargeStart) {
      // A run is owned by the lane whose range covers its start block;
      // continuation blocks are skipped by every lane.
      ObjectRef Ref = ObjectRef(Base);
      Pages.touch(Region::ColorTable, Ref >> GranuleShift);
      Color C = H.loadColor(Ref);
      if (C == Clear && H.casColor(Ref, C, Color::Blue)) {
        uint32_t RunBytes = H.storageBytesOf(Ref);
        H.freeLargeRun(uint32_t(BlockIdx));
        ++R.ObjectsFreed;
        R.BytesFreed += RunBytes;
      } else if (C != Color::Blue) {
        processSurvivor(Ref, C, H.storageBytesOf(Ref), Mode, OldestAge,
                        Alloc, R);
      }
      continue;
    }

    if (Desc.State != BlockState::SizeClass)
      continue;

    unsigned ClassIdx = Desc.SizeClassIdx;
    Heap::CellChain &Chain = Chains[ClassIdx];
    Pages.touchRange(Region::ColorTable, Base >> GranuleShift,
                     Heap::BlockBytes >> GranuleShift);
    for (uint32_t Cell = 0; Cell < Desc.NumCells; ++Cell) {
      ObjectRef Ref = ObjectRef(Base + uint64_t(Cell) * Desc.CellBytes);
      Color C = H.loadColor(Ref, std::memory_order_acquire);
      if (C == Color::Blue)
        continue;
      if (C == Clear) {
        if (H.casColor(Ref, C, Color::Blue)) {
          // Thread the cell into this lane's pending chain.  Writing the
          // link touches the cell's arena page, like the paper's sweep.
          Pages.touch(Region::Arena, Ref);
          if (Mode == SweepMode::GenerationalAging)
            H.ages().setAge(Ref, 0);
          ++R.ObjectsFreed;
          R.BytesFreed += Desc.CellBytes;
          H.setChainNext(Ref, Chain.Head);
          Chain.Head = Ref;
          if (++Chain.Count == H.config().ChainCells) {
            H.pushFreeChain(ClassIdx, Chain);
            Chain = Heap::CellChain();
          }
          continue;
        }
        // Lost the race to a late shade: the object floats into the next
        // cycle as a live survivor.
        C = H.loadColor(Ref);
      }
      processSurvivor(Ref, C, Desc.CellBytes, Mode, OldestAge, Alloc, R);
    }
  }
}

void Sweeper::flushChains() {
  for (unsigned ClassIdx = 0; ClassIdx < NumSizeClasses; ++ClassIdx) {
    H.pushFreeChain(ClassIdx, Chains[ClassIdx]);
    Chains[ClassIdx] = Heap::CellChain();
  }
}

ParallelSweepResult gengc::sweepParallel(Heap &H, CollectorState &S,
                                         GcWorkerPool &Pool,
                                         const SweepPlan &Plan,
                                         ObsRegistry *Obs) {
  SweepMode Mode = Plan.Mode;
  uint8_t OldestAge = Plan.OldestAge;
  unsigned Lanes = Pool.lanes();
  size_t NumBlocks = H.numBlocks();
  // Coarse enough that a lane amortizes its claims, fine enough that an
  // unlucky lane stuck with a dense block range can be helped.
  size_t Chunk = std::max<size_t>(8, NumBlocks / (size_t(Lanes) * 8));

  ParallelSweepResult R;
  R.WorkerNanos.assign(Lanes, 0);
  std::vector<Sweeper> Engines;
  Engines.reserve(Lanes);
  for (unsigned Lane = 0; Lane < Lanes; ++Lane)
    Engines.emplace_back(H, S);
  std::vector<Sweeper::Result> LaneResults(Lanes);

  // Same dynamic chunk claiming as parallelChunks, inlined so each lane can
  // run a per-lane epilogue (flush its chains) after its last chunk.
  std::atomic<size_t> Cursor{0};
  Pool.run([&](unsigned Lane) {
    EventRing *Ring = Obs ? Obs->laneRing(Lane) : nullptr;
    uint64_t Start = nowNanos();
    Sweeper &Engine = Engines[Lane];
    uint64_t BlocksSwept = 0;
    for (;;) {
      size_t Begin = Cursor.fetch_add(Chunk, std::memory_order_relaxed);
      if (Begin >= NumBlocks)
        break;
      size_t End = std::min(Begin + Chunk, NumBlocks);
      uint64_t ChunkStart = Ring ? nowNanos() : 0;
      Engine.sweepBlockRange(Mode, OldestAge, Begin, End, LaneResults[Lane]);
      BlocksSwept += End - Begin;
      if (Ring)
        Ring->emit(ObsEventKind::SweepChunk, ChunkStart,
                   nowNanos() - ChunkStart, Begin, End - Begin);
    }
    Engine.flushChains();
    R.WorkerNanos[Lane] = nowNanos() - Start;
    if (Ring)
      Ring->emit(ObsEventKind::SweepSpan, Start, R.WorkerNanos[Lane],
                 LaneResults[Lane].ObjectsFreed, BlocksSwept);
  });

  for (const Sweeper::Result &LR : LaneResults)
    R.Total.merge(LR);
  return R;
}
