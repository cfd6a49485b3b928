//===- tests/heap/HeapStressTest.cpp ----------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// Heap-manager stress beyond the unit tests: chain integrity under
// concurrent pop/push across size classes, exhaust-and-recover cycles,
// large-run placement under fragmentation, and single-block carving racing
// large-run placement and reclamation.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "heap/Heap.h"
#include "support/Random.h"

using namespace gengc;

namespace {

TEST(HeapStress, ConcurrentPopPushPreservesEveryCell) {
  HeapConfig Config;
  Config.HeapBytes = 8 << 20;
  Heap H(Config);
  constexpr unsigned Threads = 4, Rounds = 300;

  // Each thread pops chains, walks them (verifying alignment and class),
  // and pushes them back — the sweep/allocate transfer pattern.
  std::vector<std::thread> Workers;
  std::atomic<uint64_t> CellsSeen{0};
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      Rng Rand(W * 7 + 1);
      for (unsigned R = 0; R < Rounds; ++R) {
        unsigned Class = unsigned(Rand.nextBelow(6));
        Heap::CellChain Chain = H.popFreeChain(Class);
        if (Chain.Count == 0)
          continue;
        unsigned Walked = 0;
        for (ObjectRef Cell = Chain.Head; Cell != NullRef;
             Cell = H.chainNext(Cell)) {
          ASSERT_EQ(Cell % GranuleBytes, 0u);
          ASSERT_EQ(H.block(H.blockIndexOf(Cell)).SizeClassIdx, Class);
          ++Walked;
        }
        ASSERT_EQ(Walked, Chain.Count);
        CellsSeen.fetch_add(Walked, std::memory_order_relaxed);
        H.pushFreeChain(Class, Chain);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_GT(CellsSeen.load(), 0u);
  EXPECT_EQ(H.usedBytes(), 0u) << "every pop was matched by a push";
}

TEST(HeapStress, ExhaustAndRecoverRepeatedly) {
  HeapConfig Config;
  Config.HeapBytes = 4 * Heap::BlockBytes;
  Heap H(Config);
  unsigned Class = sizeClassFor(64);
  for (int Round = 0; Round < 10; ++Round) {
    // Drain the whole heap into chains.
    std::vector<Heap::CellChain> Held;
    for (;;) {
      Heap::CellChain Chain = H.popFreeChain(Class);
      if (Chain.Count == 0)
        break;
      Held.push_back(Chain);
    }
    EXPECT_GT(Held.size(), 0u);
    EXPECT_EQ(H.popFreeChain(Class).Count, 0u) << "exhausted";
    // Return everything; the next round must see the same capacity.
    uint64_t Returned = 0;
    for (const Heap::CellChain &Chain : Held) {
      Returned += Chain.Count;
      H.pushFreeChain(Class, Chain);
    }
    static uint64_t FirstRound = 0;
    if (Round == 0)
      FirstRound = Returned;
    EXPECT_EQ(Returned, FirstRound) << "capacity drifted across rounds";
  }
}

TEST(HeapStress, MixedClassesDoNotInterfere) {
  HeapConfig Config;
  Config.HeapBytes = 8 << 20;
  Heap H(Config);
  std::set<ObjectRef> All;
  Rng Rand(99);
  std::vector<std::pair<unsigned, Heap::CellChain>> Held;
  for (int I = 0; I < 200; ++I) {
    unsigned Class = unsigned(Rand.nextBelow(NumSizeClasses));
    Heap::CellChain Chain = H.popFreeChain(Class);
    if (Chain.Count == 0)
      continue;
    for (ObjectRef Cell = Chain.Head; Cell != NullRef;
         Cell = H.chainNext(Cell)) {
      auto [It, Fresh] = All.insert(Cell);
      ASSERT_TRUE(Fresh) << "cell handed out twice across classes";
      // Cell spans must not overlap the next cell of its class.
      ASSERT_EQ(H.storageBytesOf(Cell), sizeClassBytes(Class));
    }
    Held.push_back({Class, Chain});
  }
  for (auto &[Class, Chain] : Held)
    H.pushFreeChain(Class, Chain);
}

TEST(HeapStress, LargeRunsUnderFragmentation) {
  HeapConfig Config;
  Config.HeapBytes = 16 * Heap::BlockBytes;
  Heap H(Config);
  // Fragment: carve small-object blocks at alternating positions by
  // allocating large runs and freeing every other one.
  std::vector<ObjectRef> Runs;
  for (int I = 0; I < 7; ++I) {
    ObjectRef Run = H.allocateLarge(uint32_t(2 * Heap::BlockBytes) - 64);
    ASSERT_NE(Run, NullRef);
    Runs.push_back(Run);
  }
  for (size_t I = 0; I < Runs.size(); I += 2)
    H.freeLargeRun(H.blockIndexOf(Runs[I]));
  // 2-block holes exist; a 2-block run must fit, a 4-block must not
  // (holes are separated by live runs).
  EXPECT_NE(H.allocateLarge(uint32_t(2 * Heap::BlockBytes) - 64), NullRef);
  EXPECT_EQ(H.allocateLarge(uint32_t(4 * Heap::BlockBytes) - 64), NullRef);
  // Freeing the separators heals the space.
  for (size_t I = 1; I < Runs.size(); I += 2)
    H.freeLargeRun(H.blockIndexOf(Runs[I]));
  EXPECT_NE(H.allocateLarge(uint32_t(4 * Heap::BlockBytes) - 64), NullRef);
}

TEST(HeapStress, CarvingRacesLargeRunPlacement) {
  // Single-block carving and large-run placement both take blocks out of
  // the free pool, and large-run reclamation puts them back.  Race the
  // three on a heap small enough to run dry, then check that no block
  // ended up owned by both a size class and a run, and that the free count
  // agrees with the block table.
  constexpr unsigned Iterations = 20, Ops = 48;
  struct HeldChain {
    unsigned Class;
    Heap::CellChain Chain;
  };
  struct HeldRun {
    uint32_t Start;
    uint32_t Blocks;
  };
  for (unsigned Iter = 0; Iter < Iterations; ++Iter) {
    HeapConfig Config;
    Config.HeapBytes = 64 * Heap::BlockBytes;
    Heap H(Config);

    std::vector<HeldChain> Chains[2];
    std::vector<HeldRun> Runs[2];
    std::atomic<bool> Go{false};
    auto AwaitGo = [&] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
    };
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < 2; ++T)
      Workers.emplace_back([&, T] {
        Rng Rand(Iter * 4 + T + 1);
        AwaitGo();
        for (unsigned I = 0; I < Ops; ++I) {
          unsigned Class = unsigned(Rand.nextBelow(NumSizeClasses));
          Heap::CellChain Chain = H.popFreeChain(Class);
          if (Chain.Count != 0)
            Chains[T].push_back({Class, Chain});
        }
      });
    for (unsigned T = 0; T < 2; ++T)
      Workers.emplace_back([&, T] {
        Rng Rand(Iter * 4 + T + 3);
        std::vector<HeldRun> &Held = Runs[T];
        AwaitGo();
        for (unsigned I = 0; I < Ops; ++I) {
          if (!Held.empty() && Rand.nextBelow(2) == 0) {
            size_t Victim = Rand.nextBelow(Held.size());
            H.freeLargeRun(Held[Victim].Start);
            Held[Victim] = Held.back();
            Held.pop_back();
            continue;
          }
          uint32_t Blocks = 1 + uint32_t(Rand.nextBelow(3));
          ObjectRef Base =
              H.allocateLarge(uint32_t(Blocks * Heap::BlockBytes) - 64);
          if (Base != NullRef)
            Held.push_back({H.blockIndexOf(Base), Blocks});
        }
      });
    Go.store(true, std::memory_order_release);
    for (std::thread &W : Workers)
      W.join();

    std::vector<bool> Carved(H.numBlocks());
    for (const std::vector<HeldChain> &PerThread : Chains)
      for (const HeldChain &Held : PerThread)
        for (ObjectRef Cell = Held.Chain.Head; Cell != NullRef;
             Cell = H.chainNext(Cell)) {
          uint32_t BlockIdx = H.blockIndexOf(Cell);
          const BlockDescriptor &Desc = H.block(BlockIdx);
          ASSERT_EQ(Desc.State.load(), BlockState::SizeClass)
              << "held cell in block " << BlockIdx;
          ASSERT_EQ(Desc.SizeClassIdx, Held.Class)
              << "held cell in block " << BlockIdx;
          Carved[BlockIdx] = true;
        }
    for (const std::vector<HeldRun> &PerThread : Runs)
      for (const HeldRun &Run : PerThread)
        for (uint32_t B = Run.Start; B < Run.Start + Run.Blocks; ++B) {
          ASSERT_FALSE(Carved[B]) << "a live run covers carved block " << B;
          ASSERT_EQ(H.block(B).State.load(), B == Run.Start
                                                 ? BlockState::LargeStart
                                                 : BlockState::LargeCont);
        }
    uint64_t FreeSeen = 0;
    for (size_t B = 0; B < H.numBlocks(); ++B)
      FreeSeen += H.block(B).State.load() == BlockState::Free;
    EXPECT_EQ(FreeSeen, H.freeBlockCount());

    for (const std::vector<HeldChain> &PerThread : Chains)
      for (const HeldChain &Held : PerThread)
        H.pushFreeChain(Held.Class, Held.Chain);
    for (const std::vector<HeldRun> &PerThread : Runs)
      for (const HeldRun &Run : PerThread)
        H.freeLargeRun(Run.Start);
    EXPECT_EQ(H.usedBytes(), 0u) << "iteration " << Iter;
  }
}

TEST(HeapStress, ChainCellsConfigBoundsChainLength) {
  HeapConfig Config;
  Config.HeapBytes = 4 << 20;
  Config.ChainCells = 32;
  Heap H(Config);
  for (int I = 0; I < 50; ++I) {
    Heap::CellChain Chain = H.popFreeChain(0);
    ASSERT_LE(Chain.Count, 32u);
    ASSERT_GT(Chain.Count, 0u);
  }
}

} // namespace
