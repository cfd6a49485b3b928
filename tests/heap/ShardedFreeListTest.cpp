//===- tests/heap/ShardedFreeListTest.cpp ----------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// The sharded central free lists: home-shard hashing, ring-order stealing
// with the bounded-steal budget, carve fallback when every shard is dry,
// chain conservation across shards, and a many-mutator churn stress that
// doubles as the TSan/ASan gate for the refill and carve paths.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/GenGc.h"
#include "heap/Heap.h"

using namespace gengc;

namespace {

HeapConfig shardedConfig(uint32_t Shards, uint64_t HeapBytes = 4 << 20) {
  HeapConfig Config;
  Config.HeapBytes = HeapBytes;
  Config.AllocShards = Shards;
  return Config;
}

TEST(ShardedFreeList, HomeShardHashIsStableAndInRange) {
  Heap H(shardedConfig(8));
  ASSERT_EQ(H.allocShards(), 8u);
  std::set<unsigned> Hit;
  for (uint64_t Id = 0; Id < 64; ++Id) {
    unsigned Shard = H.homeShardFor(Id);
    EXPECT_LT(Shard, 8u);
    EXPECT_EQ(Shard, H.homeShardFor(Id)) << "hash not stable for id " << Id;
    Hit.insert(Shard);
  }
  // Fibonacci hashing spreads consecutive registration ids: 64 ids must not
  // pile onto a couple of shards.
  EXPECT_GE(Hit.size(), 6u);
}

TEST(ShardedFreeList, SingleShardDegeneratesToShardZero) {
  Heap H(shardedConfig(1));
  EXPECT_EQ(H.allocShards(), 1u);
  for (uint64_t Id = 0; Id < 16; ++Id)
    EXPECT_EQ(H.homeShardFor(Id), 0u);
}

TEST(ShardedFreeList, CarveFallbackReportsAndFillsHomeShard) {
  Heap H(shardedConfig(4));
  Heap::CellChain Chain;
  Heap::RefillStats Stats;
  // Empty heap: the refill must carve, into the home shard, and say so.
  unsigned Got = H.popFreeChains(/*ClassIdx=*/0, /*HomeShard=*/2, 1, &Chain,
                                 &Stats);
  ASSERT_EQ(Got, 1u);
  EXPECT_GT(Chain.Count, 0u);
  EXPECT_TRUE(Stats.Carved);
  EXPECT_EQ(Stats.StolenFrom, -1);
  EXPECT_EQ(H.carveFallbackCount(), 1u);
  // The carve deposited the block's remaining chains in shard 2: the next
  // refill of that shard is served locally, no steal, no carve.
  Heap::CellChain Next;
  Heap::RefillStats Stats2;
  ASSERT_EQ(H.popFreeChains(0, 2, 1, &Next, &Stats2), 1u);
  EXPECT_FALSE(Stats2.Carved);
  EXPECT_EQ(Stats2.StolenFrom, -1);
  EXPECT_EQ(Stats2.ShardsProbed, 0u);
  // The block the chains came from records shard 2 as its home.
  EXPECT_EQ(H.block(H.blockIndexOf(Chain.Head)).HomeShard, 2u);
}

/// Drains every chain of \p ClassIdx out of \p H (all shards AND all free
/// blocks, which would otherwise be carved to refill a dry shard), so a test
/// can stage an exact inventory with pushFreeChain.
std::vector<Heap::CellChain> drainClass(Heap &H, unsigned ClassIdx) {
  std::vector<Heap::CellChain> Held;
  for (;;) {
    Heap::CellChain C = H.popFreeChain(ClassIdx, 0);
    if (C.Count == 0)
      break;
    Held.push_back(C);
  }
  return Held;
}

TEST(ShardedFreeList, StealProbesNeighborsInRingOrder) {
  Heap H(shardedConfig(4));
  std::vector<Heap::CellChain> Held = drainClass(H, 1);
  ASSERT_GE(Held.size(), 1u);
  // Exactly one chain findable, parked in shard 2.
  Heap::CellChain Seed = Held.back();
  Held.pop_back();
  H.pushFreeChain(1, Seed, /*HomeShard=*/2);

  // A refill homed at 0 probes 1 (empty) then 2 (hit): ring order.
  Heap::CellChain Stolen;
  Heap::RefillStats Stats;
  ASSERT_EQ(H.popFreeChains(1, 0, 1, &Stolen, &Stats), 1u);
  EXPECT_EQ(Stats.StolenFrom, 2);
  EXPECT_EQ(Stats.ShardsProbed, 2u);
  EXPECT_FALSE(Stats.Carved);
  EXPECT_EQ(Stolen.Head, Seed.Head);
  EXPECT_GE(H.refillStealCount(), 1u);
}

TEST(ShardedFreeList, StealIsBoundedToHalfTheVictim) {
  Heap H(shardedConfig(4));
  std::vector<Heap::CellChain> Held = drainClass(H, 2);
  ASSERT_GE(Held.size(), 4u);
  // Exactly 4 chains findable, all in shard 3.
  for (int I = 0; I < 4; ++I) {
    H.pushFreeChain(2, Held.back(), /*HomeShard=*/3);
    Held.pop_back();
  }

  // A dry home shard asking for everything gets at most half the victim's
  // inventory: ceil(4/2) == 2, even though 8 were requested.
  Heap::CellChain Out[8];
  Heap::RefillStats Stats;
  unsigned Got = H.popFreeChains(2, 0, 8, Out, &Stats);
  EXPECT_EQ(Got, 2u);
  EXPECT_EQ(Stats.StolenFrom, 3);
  EXPECT_FALSE(Stats.Carved);
}

TEST(ShardedFreeList, BatchedPopTakesUpToMaxFromHomeShard) {
  Heap H(shardedConfig(2));
  // One carve parks several chains in shard 1 (64-byte cells: 1024 cells,
  // ChainCells=256 -> 4 chains per block).
  unsigned Class = sizeClassFor(64);
  Heap::CellChain First = H.popFreeChain(Class, 1);
  Heap::CellChain Out[3];
  Heap::RefillStats Stats;
  unsigned Got = H.popFreeChains(Class, 1, 3, Out, &Stats);
  EXPECT_EQ(Got, 3u);
  EXPECT_FALSE(Stats.Carved);
  EXPECT_EQ(Stats.StolenFrom, -1);
  H.pushFreeChain(Class, First, 1);
  for (unsigned I = 0; I < Got; ++I)
    H.pushFreeChain(Class, Out[I], 1);
}

TEST(ShardedFreeList, CellsAreConservedAcrossShardRoundTrips) {
  Heap H(shardedConfig(4, /*HeapBytes=*/1 << 20)); // 16 blocks, 15 free
  unsigned Class = sizeClassFor(128);

  // Drain the whole heap for one class, spreading requests over shards.
  std::vector<Heap::CellChain> Taken;
  uint64_t Cells = 0;
  for (unsigned Home = 0;; Home = (Home + 1) & 3) {
    Heap::CellChain C = H.popFreeChain(Class, Home);
    if (C.Count == 0)
      break;
    Cells += C.Count;
    Taken.push_back(C);
  }
  ASSERT_GT(Cells, 0u);
  EXPECT_EQ(H.freeBlockCount(), 0u);

  // Return everything, deliberately to the "wrong" shards.
  for (size_t I = 0; I < Taken.size(); ++I)
    H.pushFreeChain(Class, Taken[I], unsigned((I * 3) & 3));
  EXPECT_EQ(H.usedBytes(), 0u);

  // Every cell is findable again, exactly once, from any home shard.
  std::set<ObjectRef> Seen;
  uint64_t Recovered = 0;
  for (;;) {
    Heap::CellChain C = H.popFreeChain(Class, 1);
    if (C.Count == 0)
      break;
    Recovered += C.Count;
    for (ObjectRef Cell = C.Head; Cell != NullRef; Cell = H.chainNext(Cell))
      EXPECT_TRUE(Seen.insert(Cell).second) << "cell handed out twice";
  }
  EXPECT_EQ(Recovered, Cells);
  EXPECT_EQ(Seen.size(), Cells);
}

TEST(ShardedFreeList, ForEachFreeChainSeesEveryShard) {
  Heap H(shardedConfig(4));
  unsigned Class = sizeClassFor(64);
  Heap::CellChain A = H.popFreeChain(Class, 0);
  Heap::CellChain B = H.popFreeChain(Class, 3);
  H.pushFreeChain(Class, A, 0);
  H.pushFreeChain(Class, B, 3);
  std::set<ObjectRef> Heads;
  H.forEachFreeChain(
      [&](unsigned ClassIdx, unsigned, const Heap::CellChain &Chain) {
        if (ClassIdx == Class)
          Heads.insert(Chain.Head);
      });
  EXPECT_TRUE(Heads.count(A.Head));
  EXPECT_TRUE(Heads.count(B.Head));
}

TEST(ShardedFreeList, SingleShardPopSequenceIsDeterministic) {
  // With AllocShards=1 the sharded path must reduce to the historical
  // single-central-list behavior: two identical heaps hand out identical
  // cell sequences (the DeterminismTest contract at the heap level).
  std::vector<ObjectRef> Runs[2];
  for (int Run = 0; Run < 2; ++Run) {
    Heap H(shardedConfig(1, 1 << 20));
    for (int I = 0; I < 32; ++I) {
      Heap::CellChain C = H.popFreeChain(I % NumSizeClasses, 0);
      Runs[Run].push_back(C.Head);
    }
  }
  EXPECT_EQ(Runs[0], Runs[1]);
}

TEST(ShardedFreeList, ConfigRejectsBadShardCounts) {
  RuntimeConfig Config;
  Config.Heap.AllocShards = 3;
  EXPECT_NE(Config.validate(), "");
  Config.Heap.AllocShards = 512;
  EXPECT_NE(Config.validate(), "");
  Config.Heap.AllocShards = 16;
  EXPECT_EQ(Config.validate(), "");
  Config.Heap.RefillBatchMax = 0;
  EXPECT_NE(Config.validate(), "");
}

//===----------------------------------------------------------------------===//
// Many-mutator churn stress.  64 threads hammer the allocation path of a
// multi-shard runtime while the collector runs; under the TSan build this is
// the data-race gate for the block carve and the per-shard locks,
// under ASan it checks the free-list protocol never double-frees a cell.
//===----------------------------------------------------------------------===//

TEST(ShardedFreeList, SixtyFourMutatorChurn) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 32ull << 20;
  Config.Heap.AllocShards = 8; // force multi-shard even on small machines
  Config.Heap.RefillBatchMax = 4;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.GcThreads = 2;
  Config.Collector.Trigger.YoungBytes = 2ull << 20; // keep sweep busy
  Runtime RT(Config);

  constexpr int NumThreads = 64;
  constexpr int AllocsPerThread = 1500;
  std::atomic<uint64_t> Allocated{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&RT, &Allocated, T] {
      auto M = RT.attachMutator();
      RootScope Roots(*M);
      // A rolling window of live roots so sweep has both garbage and
      // survivors in every block; sizes cover three size classes.
      ObjectRef Keep = Roots.add(M->allocate(2, 16));
      for (int I = 0; I < AllocsPerThread; ++I) {
        uint32_t Bytes = I % 3 == 0 ? 16 : (I % 3 == 1 ? 48 : 256);
        ObjectRef Obj = M->allocate(1, Bytes);
        ASSERT_NE(Obj, NullRef);
        if (I % 7 == T % 7)
          M->writeRef(Keep, I & 1, Obj);
        Allocated.fetch_add(1, std::memory_order_relaxed);
        if (I % 64 == 0)
          M->cooperate();
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Allocated.load(), uint64_t(NumThreads) * AllocsPerThread);

  // The sharded path actually ran: refills happened, and the snapshot
  // surfaces the new counters.
  MetricsSnapshot M = RT.metrics();
  EXPECT_EQ(M.AllocShardCount, 8u);
  EXPECT_GT(M.AllocRefills, 0u);
  EXPECT_GT(M.AllocCarveFallbacks, 0u);
}

} // namespace
