//===- tests/heap/HeapTest.cpp ---------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <thread>

#include "core/Runtime.h"
#include "heap/Heap.h"
#include "workload/Runner.h"

using namespace gengc;

namespace {

/// Resident memory of this process in bytes (/proc/self/statm).
int64_t residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  int64_t SizePages = 0, ResidentPages = 0;
  Statm >> SizePages >> ResidentPages;
  return ResidentPages * int64_t(sysconf(_SC_PAGESIZE));
}

HeapConfig smallConfig() {
  HeapConfig Config;
  Config.HeapBytes = 4 << 20;
  return Config;
}

TEST(Heap, ReservesBlockZero) {
  Heap H(smallConfig());
  EXPECT_EQ(H.block(0).State, BlockState::Reserved);
  // Popping a chain never yields a cell in block 0 (offset 0 = null).
  Heap::CellChain Chain = H.popFreeChain(0);
  for (ObjectRef Cell = Chain.Head; Cell != NullRef;
       Cell = H.chainNext(Cell))
    EXPECT_NE(H.blockIndexOf(Cell), 0u);
}

TEST(Heap, PopFreeChainYieldsDistinctAlignedCells) {
  Heap H(smallConfig());
  unsigned Class = sizeClassFor(48);
  Heap::CellChain Chain = H.popFreeChain(Class);
  EXPECT_GT(Chain.Count, 0u);
  std::set<ObjectRef> Seen;
  unsigned Walked = 0;
  for (ObjectRef Cell = Chain.Head; Cell != NullRef;
       Cell = H.chainNext(Cell), ++Walked) {
    EXPECT_TRUE(Seen.insert(Cell).second) << "duplicate cell in chain";
    EXPECT_EQ(Cell % GranuleBytes, 0u);
    EXPECT_EQ(H.storageBytesOf(Cell), sizeClassBytes(Class));
  }
  EXPECT_EQ(Walked, Chain.Count);
}

TEST(Heap, ChainsFromSameClassNeverOverlap) {
  Heap H(smallConfig());
  std::set<ObjectRef> Seen;
  for (int I = 0; I < 8; ++I) {
    Heap::CellChain Chain = H.popFreeChain(2);
    for (ObjectRef Cell = Chain.Head; Cell != NullRef;
         Cell = H.chainNext(Cell))
      EXPECT_TRUE(Seen.insert(Cell).second);
  }
}

TEST(Heap, UsedBytesTracksPopsAndPushes) {
  Heap H(smallConfig());
  EXPECT_EQ(H.usedBytes(), 0u);
  Heap::CellChain Chain = H.popFreeChain(0);
  uint64_t Expected = uint64_t(Chain.Count) * sizeClassBytes(0);
  EXPECT_EQ(H.usedBytes(), Expected);
  H.pushFreeChain(0, Chain);
  EXPECT_EQ(H.usedBytes(), 0u);
}

TEST(Heap, AllocatedSinceGcAccumulatesAndResets) {
  Heap H(smallConfig());
  H.popFreeChain(0);
  H.popFreeChain(3);
  EXPECT_GT(H.allocatedSinceGcBytes(), 0u);
  H.resetAllocatedSinceGc();
  EXPECT_EQ(H.allocatedSinceGcBytes(), 0u);
}

TEST(Heap, ExhaustionReturnsEmptyChain) {
  HeapConfig Config;
  Config.HeapBytes = 2 * Heap::BlockBytes; // one usable block
  Heap H(Config);
  Heap::CellChain First = H.popFreeChain(NumSizeClasses - 1);
  EXPECT_GT(First.Count, 0u);
  // Drain everything.
  for (int I = 0; I < 1000; ++I)
    if (H.popFreeChain(NumSizeClasses - 1).Count == 0)
      break;
  EXPECT_EQ(H.popFreeChain(NumSizeClasses - 1).Count, 0u);
  // Returning memory makes it allocatable again.
  H.pushFreeChain(NumSizeClasses - 1, First);
  EXPECT_GT(H.popFreeChain(NumSizeClasses - 1).Count, 0u);
}

TEST(Heap, ColorRoundTrip) {
  Heap H(smallConfig());
  Heap::CellChain Chain = H.popFreeChain(1);
  ObjectRef Ref = Chain.Head;
  EXPECT_EQ(H.loadColor(Ref), Color::Blue);
  H.storeColor(Ref, Color::White);
  EXPECT_EQ(H.loadColor(Ref), Color::White);
  Color Expected = Color::White;
  EXPECT_TRUE(H.casColor(Ref, Expected, Color::Gray));
  EXPECT_EQ(H.loadColor(Ref), Color::Gray);
  Expected = Color::White; // wrong expectation
  EXPECT_FALSE(H.casColor(Ref, Expected, Color::Black));
  EXPECT_EQ(Expected, Color::Gray) << "failed CAS reports the actual color";
}

TEST(Heap, WordAccessRoundTrip) {
  Heap H(smallConfig());
  H.wordAt(1024).store(0xDEADBEEF);
  EXPECT_EQ(H.wordAt(1024).load(), 0xDEADBEEFu);
}

TEST(Heap, BlockDescriptorsMatchCarving) {
  Heap H(smallConfig());
  unsigned Class = sizeClassFor(100); // 128-byte cells
  Heap::CellChain Chain = H.popFreeChain(Class);
  uint32_t BlockIdx = H.blockIndexOf(Chain.Head);
  const BlockDescriptor &Desc = H.block(BlockIdx);
  EXPECT_EQ(Desc.State, BlockState::SizeClass);
  EXPECT_EQ(Desc.CellBytes, 128u);
  EXPECT_EQ(Desc.NumCells, Heap::BlockBytes / 128);
  EXPECT_EQ(Desc.SizeClassIdx, Class);
}

TEST(Heap, CellRecipMatchesDivision) {
  Heap H(smallConfig());
  // Carve one block of every class and verify the reciprocal shortcut.
  for (unsigned Class = 0; Class < NumSizeClasses; ++Class) {
    Heap::CellChain Chain = H.popFreeChain(Class);
    ASSERT_GT(Chain.Count, 0u);
    const BlockDescriptor &Desc = H.block(H.blockIndexOf(Chain.Head));
    for (uint32_t Offset = 0; Offset < Heap::BlockBytes; Offset += 97) {
      uint32_t ByDiv = Offset / Desc.CellBytes;
      uint32_t ByRecip =
          uint32_t((uint64_t(Offset) * Desc.CellRecip) >> 32);
      EXPECT_EQ(ByDiv, ByRecip) << "class " << Class << " offset " << Offset;
    }
  }
}

TEST(Heap, ForEachObjectOverlappingCardSmallCards) {
  HeapConfig Config = smallConfig();
  Config.CardBytes = 16;
  Heap H(Config);
  unsigned Class = sizeClassFor(40); // 48-byte cells: cards straddle cells
  Heap::CellChain Chain = H.popFreeChain(Class);
  uint32_t BlockIdx = H.blockIndexOf(Chain.Head);
  uint64_t Base = uint64_t(BlockIdx) << Heap::BlockShift;

  // Card at Base+16 lies inside cell 0 (bytes 0..47).
  std::vector<ObjectRef> Refs;
  H.forEachObjectOverlappingCard(H.cards().cardIndexFor(Base + 16),
                                 [&](ObjectRef R) { Refs.push_back(R); });
  ASSERT_EQ(Refs.size(), 1u);
  EXPECT_EQ(Refs[0], ObjectRef(Base));
}

TEST(Heap, ForEachObjectOverlappingCardLargeCards) {
  HeapConfig Config = smallConfig();
  Config.CardBytes = 4096;
  Heap H(Config);
  unsigned Class = sizeClassFor(1000); // 1024-byte cells: 4 per card
  Heap::CellChain Chain = H.popFreeChain(Class);
  uint32_t BlockIdx = H.blockIndexOf(Chain.Head);
  uint64_t Base = uint64_t(BlockIdx) << Heap::BlockShift;

  std::vector<ObjectRef> Refs;
  H.forEachObjectOverlappingCard(H.cards().cardIndexFor(Base),
                                 [&](ObjectRef R) { Refs.push_back(R); });
  EXPECT_EQ(Refs.size(), 4u);
  for (unsigned I = 0; I < Refs.size(); ++I)
    EXPECT_EQ(Refs[I], ObjectRef(Base + I * 1024));
}

TEST(Heap, ForEachObjectOverlappingCardFreeBlock) {
  Heap H(smallConfig());
  unsigned Calls = 0;
  // Cards over the reserved block and over untouched blocks yield nothing.
  H.forEachObjectOverlappingCard(0, [&](ObjectRef) { ++Calls; });
  H.forEachObjectOverlappingCard(
      H.cards().cardIndexFor(2 * Heap::BlockBytes),
      [&](ObjectRef) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
}

TEST(Heap, CountAllocatedCardsGrowsWithCarving) {
  HeapConfig Config = smallConfig();
  Config.CardBytes = 4096;
  Heap H(Config);
  EXPECT_EQ(H.countAllocatedCards(), 0u);
  H.popFreeChain(0);
  size_t PerBlock = Heap::BlockBytes / 4096;
  EXPECT_EQ(H.countAllocatedCards(), PerBlock);
  H.popFreeChain(1);
  EXPECT_EQ(H.countAllocatedCards(), 2 * PerBlock);
}

TEST(Heap, ConcurrentPopsYieldDisjointCells) {
  Heap H(smallConfig());
  constexpr unsigned Threads = 4;
  std::vector<std::vector<ObjectRef>> PerThread(Threads);
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      for (int I = 0; I < 20; ++I) {
        Heap::CellChain Chain = H.popFreeChain(1);
        for (ObjectRef Cell = Chain.Head; Cell != NullRef;
             Cell = H.chainNext(Cell))
          PerThread[W].push_back(Cell);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  std::set<ObjectRef> All;
  for (const auto &Cells : PerThread)
    for (ObjectRef Cell : Cells)
      EXPECT_TRUE(All.insert(Cell).second) << "cell handed out twice";
}

TEST(Heap, RuntimeConstructionCommitsAlmostNothing) {
  // The arena and the side tables are mapped from zero pages, so a runtime
  // with the paper's 32 MB heap commits only what construction touches;
  // writing them at construction would commit about 40 MiB.
  int64_t Before = residentBytes();
  ASSERT_GT(Before, 0) << "/proc/self/statm unreadable";
  Runtime RT(workload::makeConfig(CollectorChoice::Generational));
  int64_t Grown = residentBytes() - Before;
  EXPECT_LT(Grown, int64_t(2) << 20) << "resident memory grew by " << Grown
                                     << " bytes";
}

TEST(Heap, LastEntryOfEveryTableRoundTrips) {
  Heap H(smallConfig());
  uint64_t LastWord = H.heapBytes() - 4;
  H.wordAt(LastWord).store(0xCAFEF00D);
  EXPECT_EQ(H.wordAt(LastWord).load(), 0xCAFEF00Du);

  ObjectRef LastGranule = ObjectRef(H.heapBytes() - GranuleBytes);
  H.storeColor(LastGranule, Color::Black);
  EXPECT_EQ(H.loadColor(LastGranule), Color::Black);
  H.rememberedFlags().entryFor(LastGranule).store(1);
  EXPECT_EQ(H.rememberedFlags().entry(H.rememberedFlags().size() - 1).load(),
            1);
  H.ages().setAge(LastGranule, 3);
  EXPECT_EQ(H.ages().ageOf(LastGranule), 3);

  CardTable &Cards = H.cards();
  Cards.markCard(H.heapBytes() - 1);
  EXPECT_TRUE(Cards.isDirty(Cards.numCards() - 1));
  EXPECT_TRUE(Cards.isSummaryDirty(Cards.numSummaryChunks() - 1));
}

} // namespace
