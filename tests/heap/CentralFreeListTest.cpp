//===- tests/heap/CentralFreeListTest.cpp ----------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// The central free lists, one per size class: carve fallback when a list
// is empty, batched pops, chain conservation across round trips, and a
// many-mutator churn stress that doubles as the TSan/ASan gate for the
// refill and carve paths.
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

HeapConfig listConfig(uint64_t HeapBytes = 4 << 20) {
  HeapConfig Config;
  Config.HeapBytes = HeapBytes;
  return Config;
}

TEST(CentralFreeList, CarveFallbackReportsAndFillsTheList) {
  Heap H(listConfig());
  Heap::CellChain Chain;
  // Empty heap: the refill must carve, into the class's list, and say so.
  unsigned Got = H.popFreeChains(/*ClassIdx=*/0, 1, &Chain);
  ASSERT_EQ(Got, 1u);
  EXPECT_GT(Chain.Count, 0u);
  EXPECT_EQ(H.carveFallbackCount(), 1u);
  // The carve deposited the block's remaining chains in the list: the next
  // refill is served from it, no carve.
  Heap::CellChain Next;
  ASSERT_EQ(H.popFreeChains(0, 1, &Next), 1u);
  EXPECT_EQ(H.carveFallbackCount(), 1u);
  EXPECT_EQ(H.blockIndexOf(Next.Head), H.blockIndexOf(Chain.Head));
}

TEST(CentralFreeList, BatchedPopTakesUpToMax) {
  Heap H(listConfig());
  // One carve parks several chains in the list (64-byte cells: 1024 cells,
  // ChainCells=256 -> 4 chains per block).
  unsigned Class = sizeClassFor(64);
  Heap::CellChain First = H.popFreeChain(Class);
  Heap::CellChain Out[3];
  unsigned Got = H.popFreeChains(Class, 3, Out);
  EXPECT_EQ(Got, 3u);
  EXPECT_EQ(H.carveFallbackCount(), 1u);
  H.pushFreeChain(Class, First);
  for (unsigned I = 0; I < Got; ++I)
    H.pushFreeChain(Class, Out[I]);
}

TEST(CentralFreeList, CellsAreConservedAcrossRoundTrips) {
  Heap H(listConfig(/*HeapBytes=*/1 << 20)); // 16 blocks, 15 free
  unsigned Class = sizeClassFor(128);

  // Drain the whole heap for one class.
  std::vector<Heap::CellChain> Taken;
  uint64_t Cells = 0;
  for (;;) {
    Heap::CellChain C = H.popFreeChain(Class);
    if (C.Count == 0)
      break;
    Cells += C.Count;
    Taken.push_back(C);
  }
  ASSERT_GT(Cells, 0u);
  EXPECT_EQ(H.freeBlockCount(), 0u);

  // Return everything, in the order it was taken.
  for (const Heap::CellChain &C : Taken)
    H.pushFreeChain(Class, C);
  EXPECT_EQ(H.usedBytes(), 0u);

  // Every cell is findable again, exactly once.
  std::set<ObjectRef> Seen;
  uint64_t Recovered = 0;
  for (;;) {
    Heap::CellChain C = H.popFreeChain(Class);
    if (C.Count == 0)
      break;
    Recovered += C.Count;
    for (ObjectRef Cell = C.Head; Cell != NullRef; Cell = H.chainNext(Cell))
      EXPECT_TRUE(Seen.insert(Cell).second) << "cell handed out twice";
  }
  EXPECT_EQ(Recovered, Cells);
  EXPECT_EQ(Seen.size(), Cells);
}

TEST(CentralFreeList, ForEachFreeChainSeesEveryParkedChain) {
  Heap H(listConfig());
  unsigned Class = sizeClassFor(64);
  Heap::CellChain A = H.popFreeChain(Class);
  Heap::CellChain B = H.popFreeChain(Class);
  H.pushFreeChain(Class, A);
  H.pushFreeChain(Class, B);
  std::set<ObjectRef> Heads;
  H.forEachFreeChain([&](unsigned ClassIdx, const Heap::CellChain &Chain) {
    if (ClassIdx == Class)
      Heads.insert(Chain.Head);
  });
  EXPECT_TRUE(Heads.count(A.Head));
  EXPECT_TRUE(Heads.count(B.Head));
}

TEST(CentralFreeList, PopSequenceIsDeterministic) {
  // Two identical heaps hand out identical cell sequences (the
  // DeterminismTest contract at the heap level).
  std::vector<ObjectRef> Runs[2];
  for (int Run = 0; Run < 2; ++Run) {
    Heap H(listConfig(1 << 20));
    for (int I = 0; I < 32; ++I) {
      Heap::CellChain C = H.popFreeChain(I % NumSizeClasses);
      Runs[Run].push_back(C.Head);
    }
  }
  EXPECT_EQ(Runs[0], Runs[1]);
}

TEST(CentralFreeList, ConfigRejectsZeroRefillBatch) {
  RuntimeConfig Config;
  Config.Heap.RefillBatchMax = 0;
  EXPECT_NE(Config.validate(), "");
}

//===----------------------------------------------------------------------===//
// Many-mutator churn stress.  64 threads hammer the allocation path while
// the collector runs, sharing one central list per size class; under the
// TSan build this is the data-race gate for the block carve and the list
// locks, under ASan it checks the free-list protocol never double-frees a
// cell.
//===----------------------------------------------------------------------===//

TEST(CentralFreeList, SixtyFourMutatorChurn) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 32ull << 20;
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

  // The refill path actually ran: refills happened, and the snapshot
  // surfaces the counters.
  MetricsSnapshot M = RT.metrics();
  EXPECT_GT(M.AllocRefills, 0u);
  EXPECT_GT(M.AllocCarveFallbacks, 0u);
}

} // namespace
