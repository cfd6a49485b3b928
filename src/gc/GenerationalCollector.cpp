//===- gc/GenerationalCollector.cpp - The paper's collector ----------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/GenerationalCollector.h"

#include <algorithm>

#include "runtime/ObjectModel.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"

using namespace gengc;

namespace {
/// Per-lane card-scan counters, merged into CycleStats after the shards
/// finish.  Keeping them lane-private means the scan body never touches a
/// shared cache line.
struct CardScanStats {
  uint64_t DirtyCards = 0;
  uint64_t OldObjectsScanned = 0;
  uint64_t CardScanAreaBytes = 0;
  uint64_t CardsRemarked = 0;
  uint64_t SummaryChunksScanned = 0;
  uint64_t CardsSkippedBySummary = 0;

  void addTo(CycleStats &Cycle) const {
    Cycle.DirtyCardsAtStart += DirtyCards;
    Cycle.OldObjectsScanned += OldObjectsScanned;
    Cycle.CardScanAreaBytes += CardScanAreaBytes;
    Cycle.CardsRemarked += CardsRemarked;
    Cycle.SummaryChunksScanned += SummaryChunksScanned;
    Cycle.CardsSkippedBySummary += CardsSkippedBySummary;
  }
};

/// Chunk size for sharding \p Items across \p Lanes (8 chunks per lane so a
/// lane stuck with a dense range can be helped, floor so tiny tables do not
/// shatter into per-item claims).
size_t shardChunk(size_t Items, unsigned Lanes, size_t Floor) {
  return std::max(Floor, Items / (size_t(Lanes) * 8));
}

/// How the two-level scan clears a summary byte before opening its chunk.
enum class SummaryClear {
  /// No mutator can be marking (simple promotion between handshakes 1 and
  /// 2): plain store.
  Uncontended,
  /// Mutators may be marking (aging): acquiring exchange, the chunk-level
  /// step 1 of Section 7.2.
  Acquire,
};

/// Enumerates every dirty card exactly once and hands it to
/// \p Body(Lane, CardIdx), sharded across the worker pool.  Two strategies:
///
/// With \p UseSummaries the scan is two-level: the dirty-summary index is
/// swept (word-wide, 512 cards per hint load) over allocated block ranges
/// only, producing a work list of dirty chunks; lanes then steal *chunks*,
/// clear each chunk's summary byte per \p ClearMode, and walk just that
/// chunk's 64 card bytes.  Cards outside allocated blocks cannot be dirty
/// (mutators only store into objects and freeLargeRun scrubs reclaimed
/// runs), so restricting the sweep loses nothing.
///
/// Without it, the historical linear walk of [0, numCards) runs — same
/// cards in the same order, strictly more bytes read.  At one lane both
/// strategies visit dirty cards in ascending index order, so per-card state
/// (LastScanned dedup) behaves identically and partial-cycle statistics are
/// bit-equal between them.
///
/// Page accounting (Figure 15) follows the bytes actually read: the linear
/// walk charges the whole card table; the two-level scan charges the whole
/// summary table plus only the card bytes of chunks it opened.
template <typename Fn>
void scanDirtyCards(Heap &H, GcWorkerPool &Pool, ObsRegistry &Obs,
                    bool UseSummaries, SummaryClear ClearMode,
                    std::vector<CardScanStats> &LaneStats, Fn Body) {
  CardTable &Cards = H.cards();
  PageTouchTracker &Pages = H.pages();
  unsigned Lanes = Pool.lanes();

  if (!UseSummaries) {
    // Linear fallback: the dirty scan reads the whole card table.
    Pages.touchRange(Region::CardTable, 0, Cards.numCards());
    parallelChunks(Pool, 0, Cards.numCards(),
                   shardChunk(Cards.numCards(), Lanes, 64),
                   [&](unsigned Lane, size_t ChunkBegin, size_t ChunkEnd) {
                     Cards.forEachDirtyIndexInRange(
                         ChunkBegin, ChunkEnd,
                         [&](size_t CardIdx) { Body(Lane, CardIdx); });
                   });
    return;
  }

  // The summary sweep reads the whole (tiny) summary table.
  Pages.touchRange(Region::CardSummary, 0, Cards.numSummaryChunks());

  // Work-list generation: dirty summary chunks over allocated block ranges,
  // ascending.  A chunk can straddle the free gap between two ranges when
  // cards are large (one chunk of 4096-byte cards spans four blocks); the
  // NextChunk watermark keeps it from being enqueued twice.
  std::vector<uint32_t> Work;
  size_t CoveredCards = 0;
  size_t NextChunk = 0;
  H.forEachAllocatedBlockRange([&](uint64_t ByteBegin, uint64_t ByteEnd) {
    size_t ChunkBegin = Cards.summaryChunkFor(Cards.cardIndexFor(ByteBegin));
    size_t ChunkEnd =
        Cards.summaryChunkFor(Cards.cardIndexFor(ByteEnd - 1)) + 1;
    ChunkBegin = std::max(ChunkBegin, NextChunk);
    if (ChunkBegin >= ChunkEnd)
      return;
    NextChunk = ChunkEnd;
    Cards.forEachDirtySummaryChunkInRange(
        ChunkBegin, ChunkEnd,
        [&](size_t Chunk) { Work.push_back(uint32_t(Chunk)); });
  });
  for (uint32_t Chunk : Work)
    CoveredCards += Cards.chunkCardEnd(Chunk) - Cards.chunkCardBegin(Chunk);
  LaneStats[0].CardsSkippedBySummary += Cards.numCards() - CoveredCards;

  // Lanes steal dirty chunks — work units that each hold at least one dirty
  // card — instead of raw index ranges that are almost entirely clean.
  parallelChunks(
      Pool, 0, Work.size(), shardChunk(Work.size(), Lanes, 1),
      [&](unsigned Lane, size_t WorkBegin, size_t WorkEnd) {
        CardScanStats &S = LaneStats[Lane];
        EventRing *Ring = Obs.laneRing(Lane);
        for (size_t W = WorkBegin; W != WorkEnd; ++W) {
          size_t Chunk = Work[W];
          ++S.SummaryChunksScanned;
          if (Ring)
            Ring->instant(ObsEventKind::CardChunkOpen, nowNanos(), Chunk);
          // Fault site: delay one summary-chunk open, widening the card
          // scan's race windows for the stress tests.
          FaultInjector::fire(FaultSite::CardScanDelay);
          // Chunk-level Section 7.2 step 1: clear the summary before
          // reading the cards it covers.  Any mutator mark that lands
          // after this re-sets the byte for the next collection; step 3 is
          // implicit because every card re-mark also sets the summary.
          if (ClearMode == SummaryClear::Acquire)
            Cards.clearSummaryAcquire(Chunk);
          else
            Cards.clearSummaryUncontended(Chunk);
          size_t CardBegin = Cards.chunkCardBegin(Chunk);
          size_t CardEnd = Cards.chunkCardEnd(Chunk);
          Pages.touchRange(Region::CardTable, CardBegin, CardEnd - CardBegin);
          Cards.forEachDirtyIndexInRange(
              CardBegin, CardEnd,
              [&](size_t CardIdx) { Body(Lane, CardIdx); });
        }
      });
}
} // namespace

GenerationalCollector::GenerationalCollector(Heap &H, CollectorState &S,
                                             MutatorRegistry &Registry,
                                             GlobalRoots &Roots,
                                             const CollectorConfig &Config)
    : Collector(H, S, Registry, Roots, Config,
                Config.Aging ? SweepMode::GenerationalAging
                             : SweepMode::GenerationalSimple,
                /*StopsTheWorld=*/false) {
  GENGC_ASSERT(!Config.Aging || Config.OldestAge >= 2,
               "aging threshold below 2 is meaningless (allocation age is 1)");
  GENGC_ASSERT(!(Config.RememberedSets && Config.Aging),
               "remembered sets are implemented for simple promotion only "
               "(the paper used cards exclusively; Section 3.1)");
  State.UseRememberedSets.store(Config.RememberedSets,
                                std::memory_order_release);
  if (Config.Aging)
    TraceEngine.setAgingThreshold(Config.OldestAge);
}

void GenerationalCollector::abortRecolor() {
  Color Alloc = State.allocationColor();
  bool Aging = Config.Aging;
  uint8_t OldestAge = Config.OldestAge;
  H.forEachObjectCell([&](ObjectRef Ref) {
    Color C = H.loadColor(Ref, std::memory_order_relaxed);
    if (C == Color::Blue || C == Color::Black || C == Alloc)
      return;
    if (C == Color::Gray) {
      // Promote: a re-grayed old object returns to the old generation; a
      // mid-trace young one tenures early.  Bumping the age keeps the
      // black-implies-oldest invariant, so the card scans of later partial
      // collections treat it exactly like any other old object.
      H.storeColor(Ref, Color::Black);
      if (Aging)
        H.ages().setAge(Ref, OldestAge);
      return;
    }
    // Clear-colored: possibly-live young object whose trace never
    // finished (or a dead one — floating garbage until the forced-Full
    // successor).  Back to the young generation.
    H.storeColor(Ref, Alloc);
  });
}

void GenerationalCollector::recolorTracedToAllocation() {
  Color Alloc = State.allocationColor();
  PageTouchTracker &Pages = H.pages();
  // Blocks are independent, so the recolor shards cleanly over block-index
  // ranges; every lane only stores to colors of objects in its own blocks.
  parallelChunks(
      Pool, 0, H.numBlocks(), shardChunk(H.numBlocks(), Pool.lanes(), 8),
      [&](unsigned, size_t ChunkBegin, size_t ChunkEnd) {
        for (size_t BlockIdx = ChunkBegin; BlockIdx != ChunkEnd; ++BlockIdx) {
          const BlockDescriptor &Desc = H.block(BlockIdx);
          uint64_t Base = uint64_t(BlockIdx) << Heap::BlockShift;
          if (Desc.State == BlockState::LargeStart) {
            ObjectRef Ref = ObjectRef(Base);
            Pages.touch(Region::ColorTable, Ref >> GranuleShift);
            Color C = H.loadColor(Ref);
            if (C == Color::Black || C == Color::Gray)
              H.storeColor(Ref, Alloc);
            continue;
          }
          if (Desc.State != BlockState::SizeClass)
            continue;
          Pages.touchRange(Region::ColorTable, Base >> GranuleShift,
                           Heap::BlockBytes >> GranuleShift);
          for (uint32_t Cell = 0; Cell < Desc.NumCells; ++Cell) {
            ObjectRef Ref = ObjectRef(Base + uint64_t(Cell) * Desc.CellBytes);
            Color C = H.loadColor(Ref, std::memory_order_relaxed);
            if (C == Color::Black || C == Color::Gray)
              H.storeColor(Ref, Alloc);
          }
        }
      });
}

void GenerationalCollector::initFullCollection(CycleStats &Cycle) {
  Cycle.DirtyCardsAtStart = H.cards().countDirty();
  recolorTracedToAllocation();
  // Aging (Figure 6): dirty cards are NOT cleared — a young object may stay
  // young across this full collection, so existing inter-generational
  // pointers remain relevant for the following partial collections
  // (Section 6).
  if (Config.Aging)
    return;
  // Simple promotion (Figure 3): every object is about to be traced, so the
  // recorded inter-generational pointers carry no information this cycle;
  // pointers created from here on re-record themselves (the write barrier
  // stays active all cycle).
  if (Config.RememberedSets) {
    std::vector<ObjectRef> Recorded;
    State.Remembered.drainTo(Recorded);
    for (ObjectRef Ref : Recorded)
      H.rememberedFlags().entryFor(Ref).store(0, std::memory_order_relaxed);
    return;
  }
  H.cards().clearAll();
  H.pages().touchRange(Region::CardTable, 0, H.cards().numCards());
  H.pages().touchRange(Region::CardSummary, 0, H.cards().numSummaryChunks());
}

void GenerationalCollector::clearCards(CycleStats &Cycle) {
  if (Config.Aging)
    clearCardsAging(Cycle);
  else if (Config.RememberedSets)
    drainRememberedSet(Cycle);
  else
    clearCardsSimple(Cycle);
}

void GenerationalCollector::clearCardsSimple(CycleStats &Cycle) {
  CardTable &Cards = H.cards();
  PageTouchTracker &Pages = H.pages();

  // Dirty cards are sharded across lanes (by chunk with summaries, by index
  // range on the fallback).  Each card is handled by exactly one lane; an
  // object overlapping a shard boundary may be scanned by two lanes (the
  // LastScanned dedup is lane-local), which at worst double counts it and
  // re-grays it twice — both benign, and impossible with one lane where
  // ascending chunk order makes this the exact sequential scan.  This runs
  // between the first and second handshakes, where the simple barrier does
  // not mark cards, so both table levels clear uncontended.
  unsigned Lanes = Pool.lanes();
  std::vector<CardScanStats> LaneStats(Lanes);
  std::vector<ObjectRef> LastScanned(Lanes, NullRef);
  std::vector<std::vector<ObjectRef>> Regrayed(Lanes);
  scanDirtyCards(
      H, Pool, Obs, Config.CardSummaryScan, SummaryClear::Uncontended,
      LaneStats,
      [&](unsigned Lane, size_t CardIdx) {
        CardScanStats &S = LaneStats[Lane];
        ++S.DirtyCards;
        Cards.clearCardUncontended(CardIdx);
        H.forEachObjectOverlappingCard(CardIdx, [&](ObjectRef Ref) {
          // Several consecutive dirty cards typically cover one object;
          // scan each object once (cards are visited in address order).
          if (Ref == LastScanned[Lane])
            return;
          LastScanned[Lane] = Ref;
          Pages.touch(Region::ColorTable, Ref >> GranuleShift);
          Color C = H.loadColor(Ref, std::memory_order_relaxed);
          if (C == Color::Blue)
            return;
          S.CardScanAreaBytes += H.storageBytesOf(Ref);
          // Figure 3: shade black (old) objects on dirty cards gray; the
          // trace will scan them and shade their young sons.
          if (C == Color::Black) {
            ++S.OldObjectsScanned;
            H.storeColor(Ref, Color::Gray);
            Regrayed[Lane].push_back(Ref);
          }
        });
      });
  for (unsigned Lane = 0; Lane < Lanes; ++Lane) {
    LaneStats[Lane].addTo(Cycle);
    State.Grays.pushMany(Regrayed[Lane]);
  }
}

void GenerationalCollector::drainRememberedSet(CycleStats &Cycle) {
  std::vector<ObjectRef> Recorded;
  State.Remembered.drainTo(Recorded);
  std::vector<ObjectRef> Regrayed;
  for (ObjectRef Ref : Recorded) {
    H.rememberedFlags().entryFor(Ref).store(0, std::memory_order_relaxed);
    Color C = H.loadColor(Ref, std::memory_order_relaxed);
    if (C == Color::Blue)
      continue;
    ++Cycle.DirtyCardsAtStart; // entries play the role of dirty cards
    Cycle.CardScanAreaBytes += H.storageBytesOf(Ref);
    if (C == Color::Black) {
      ++Cycle.OldObjectsScanned;
      H.storeColor(Ref, Color::Gray);
      Regrayed.push_back(Ref);
    }
  }
  State.Grays.pushMany(Regrayed);
}

void GenerationalCollector::clearCardsAging(CycleStats &Cycle) {
  CardTable &Cards = H.cards();
  PageTouchTracker &Pages = H.pages();

  uint8_t OldestAge = Config.OldestAge;
  // Sharded like clearCardsSimple.  The Section 7.2 three-step protocol is
  // per-card, so it composes with sharding unchanged: each card's
  // clear/scan/re-mark is executed entirely by the lane that owns the
  // card's range, racing only with mutator marking, exactly as before.
  // Here mutators DO mark concurrently, so the summary level runs the same
  // protocol one level up: acquiring summary clear before the chunk's cards
  // are read, re-set by any re-mark (mutator or collector step 3).
  // Son shading goes through markGrayClearOnly's CAS, so two lanes shading
  // the same son from boundary-straddling parents resolve correctly.
  unsigned Lanes = Pool.lanes();
  std::vector<CardScanStats> LaneStats(Lanes);
  std::vector<ObjectRef> LastCounted(Lanes, NullRef);
  scanDirtyCards(
      H, Pool, Obs, Config.CardSummaryScan, SummaryClear::Acquire, LaneStats,
      [&](unsigned Lane, size_t CardIdx) {
        CardScanStats &S = LaneStats[Lane];
        ++S.DirtyCards;
        // Section 7.2, step 1: clear the mark FIRST.  A mutator that
        // writes an inter-generational pointer concurrently either
        // re-marks after our clear (mark survives) or marked before it —
        // in which case its store is visible to the scan below and we
        // re-mark ourselves.
        Cards.clearCard(CardIdx);

        bool Remark = false;
        H.forEachObjectOverlappingCard(CardIdx, [&](ObjectRef Ref) {
          Pages.touch(Region::ColorTable, Ref >> GranuleShift);
          Color C = H.loadColor(Ref);
          if (C != Color::Black || H.ages().ageOf(Ref) != OldestAge)
            return;
          Pages.touch(Region::AgeTable, Ref >> GranuleShift);
          if (Ref != LastCounted[Lane]) {
            LastCounted[Lane] = Ref;
            ++S.OldObjectsScanned;
            S.CardScanAreaBytes += H.storageBytesOf(Ref);
          }
          // Figure 6: shade the sons of old objects directly and decide
          // whether the card still holds an inter-generational pointer.
          uint32_t RefSlots = objectRefSlots(H, Ref);
          Pages.touchRange(Region::Arena, Ref,
                           ObjectHeaderBytes +
                               uint64_t(RefSlots) * RefSlotBytes);
          for (uint32_t I = 0; I < RefSlots; ++I) {
            ObjectRef Son = loadRefSlot(H, Ref, I);
            if (Son == NullRef)
              continue;
            markGrayClearOnly(H, State, Son, CollectorGrays);
            if (H.ages().ageOf(Son) < OldestAge)
              Remark = true;
          }
        });
        if (Remark) {
          // Step 3: the card still guards an old->young pointer (and its
          // summary byte with it).
          Cards.markCardIndex(CardIdx);
          ++S.CardsRemarked;
        }
      });
  for (const CardScanStats &S : LaneStats)
    S.addTo(Cycle);
}
