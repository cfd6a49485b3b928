//===- gc/LazySweep.cpp - Allocation-interleaved sweep ----------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/LazySweep.h"

#include <vector>

#include "support/Backoff.h"
#include "support/Timer.h"

using namespace gengc;

LazySweepEngine::PublishResult LazySweepEngine::publish() {
  uint32_t Epoch = State.ColorEpoch.load(std::memory_order_acquire);
  PublishResult P;
  Sweeper Engine(H, State);
  std::vector<uint32_t> Published;

  size_t NumBlocks = H.numBlocks();
  for (size_t I = 0; I < NumBlocks; ++I) {
    const BlockDescriptor &Desc = H.block(I);
    BlockState S = Desc.State.load(std::memory_order_acquire);
    if (S == BlockState::LargeStart) {
      // Large runs are reclaimed eagerly: they are rare, block-granular,
      // and freeing one feeds the free-block stack rather than a cell list,
      // so deferring them buys nothing.
      Engine.sweepBlockRange(Plan.Mode, Plan.OldestAge, I, I + 1, P.Large);
    } else if (S == BlockState::SizeClass) {
      H.publishNeedsSweep(uint32_t(I), Epoch);
      Published.push_back(uint32_t(I));
    }
  }
  Engine.flushChains();

  // Chains already parked centrally hold Blue cells of now-published
  // blocks; move them into the blocks' stashes so the deferred-sweep
  // invariant (no central chain from an unswept block) holds from here on.
  // Cells already handed to thread caches stay there — they are Blue, the
  // per-cell sweep skips Blue, and accounting already counts them used.
  H.drainFreeListsToStashes();

  // Only now make the blocks claimable: a block claimed before the drain
  // could be marked swept while its old chains still sat centrally, and
  // the drain would then strand them in a stash nobody revisits.
  for (uint32_t Idx : Published)
    H.enqueueNeedsSweep(Idx);
  P.BlocksPublished = Published.size();

  if (Obs) {
    if (EventRing *Ring = Obs->laneRing(0))
      Ring->instant(ObsEventKind::SweepDeferred, nowNanos(),
                    P.BlocksPublished, Epoch);
  }
  return P;
}

void LazySweepEngine::sweepClaimed(uint32_t BlockIdx, bool MutatorContext) {
  const BlockDescriptor &Desc = H.block(BlockIdx);
  unsigned ClassIdx = Desc.SizeClassIdx;

  Sweeper Engine(H, State);
  Sweeper::Result R;
  std::vector<Heap::CellChain> Freed;
  Engine.sweepClaimedBlock(Plan.Mode, Plan.OldestAge, BlockIdx, R, Freed);

  // markSwept BEFORE taking the stash: a pushFreeChain racing this block
  // either appends before our take (we re-deposit it) or, once it can
  // observe the take completed, sees Swept and pushes normally.  Deposits
  // come after markSwept, so every centrally-visible chain belongs to a
  // swept block.
  H.markBlockSwept(BlockIdx);
  std::vector<Heap::CellChain> Stash = H.takePendingStash(BlockIdx);
  for (const Heap::CellChain &Chain : Freed)
    H.pushFreeChain(ClassIdx, Chain);
  for (const Heap::CellChain &Chain : Stash)
    H.repushFreeChain(ClassIdx, Chain);
  H.finishBlockSweep(MutatorContext);

  std::scoped_lock Locked(ResultMutex);
  Accum.merge(R);
}

bool LazySweepEngine::sweepOneBlockFor(unsigned ClassIdx) {
  uint32_t BlockIdx = H.claimNeedsSweepBlock(ClassIdx);
  if (BlockIdx == 0)
    return false;
  sweepClaimed(BlockIdx, /*MutatorContext=*/true);
  return true;
}

uint32_t LazySweepEngine::claimAny() {
  for (unsigned ClassIdx = 0; ClassIdx < NumSizeClasses; ++ClassIdx)
    if (uint32_t BlockIdx = H.claimNeedsSweepBlock(ClassIdx))
      return BlockIdx;
  return 0;
}

uint64_t LazySweepEngine::sweepSome(uint64_t MaxBlocks) {
  uint64_t Swept = 0;
  uint64_t Start = (Obs && MaxBlocks) ? nowNanos() : 0;
  while (Swept < MaxBlocks) {
    uint32_t BlockIdx = claimAny();
    if (BlockIdx == 0)
      break;
    sweepClaimed(BlockIdx, /*MutatorContext=*/false);
    ++Swept;
  }
  if (Swept && Obs) {
    if (EventRing *Ring = Obs->laneRing(0))
      Ring->emit(ObsEventKind::SweepResidue, Start, nowNanos() - Start, Swept,
                 0);
  }
  return Swept;
}

uint64_t LazySweepEngine::drainResidue() {
  uint64_t Swept = sweepSome(~0ull);
  // A mutator may still hold a claim from its refill path; the caller is
  // about to toggle colors, and every block must finish under the epoch it
  // was published with, so wait the claim out.  A claim pops its block and
  // counts it in sweepingBlockCount() in one critical section, so once
  // sweepSome has found every stack empty the count covers every claim.
  // The claimant never blocks on the collector (the sweep path takes only
  // list/stash mutexes), so this terminates.
  Backoff Back(/*InitialNanos=*/1000, /*CapNanos=*/100'000);
  while (H.sweepingBlockCount() != 0)
    Back.pause();
  return Swept;
}

Sweeper::Result LazySweepEngine::takeResults() {
  std::scoped_lock Locked(ResultMutex);
  Sweeper::Result R = Accum;
  Accum = Sweeper::Result();
  return R;
}
