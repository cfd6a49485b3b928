//===- heap/CardTable.h - Inter-generational pointer tracking ---*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Card marking (Sections 3.1 and 8.5.3).  The heap is partitioned into
/// cards of a configurable power-of-two size between 16 bytes ("object
/// marking") and 4096 bytes ("block marking").  Mutators dirty the card of
/// every heap slot they store a pointer into; the collector scans objects on
/// dirty cards for pointers into the young generation and treats them as
/// roots of a partial collection.
///
/// The table is two-level.  Level 0 is the paper's byte-per-card dirty
/// table.  Level 1 is a *summary* table with one byte per 64-card chunk —
/// one cache line of card bytes — that the write barrier sets with a second
/// plain store.  The collector consumes dirty cards through the summary:
/// clean chunks are swept 8 summary bytes (512 cards) per 64-bit hint load
/// instead of being walked card by card, which is the difference between
/// touching ~2M card bytes and ~32K summary bytes per partial collection on
/// the paper's 32 MB / 16-byte-card configuration.
///
/// The invariant maintained is the paper's, lifted one level: an
/// inter-generational pointer may exist only on a dirty card, and a dirty
/// card may exist only under a set summary byte.  The delicate set/clear
/// race of Section 7.2 is resolved in the collectors (three-step clear
/// against the mutator's store-then-mark order) and composes with the
/// summary level (see clearSummaryAcquire); this class only provides the
/// atomic byte storage for both levels and the scanning statistics.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_CARDTABLE_H
#define GENGC_HEAP_CARDTABLE_H

#include <cstdint>

#include "heap/AtomicByteTable.h"
#include "heap/Ref.h"

namespace gengc {

/// Two-level dirty table over the heap arena: a byte per card plus a byte
/// per 64-card summary chunk.
class CardTable {
public:
  /// Minimum card size: one granule, the paper's "object marking".
  static constexpr uint32_t MinCardBytes = 16;
  /// Maximum card size: the paper's "block marking".
  static constexpr uint32_t MaxCardBytes = 4096;
  /// log2 of the cards summarized by one level-1 byte.  64 card bytes is
  /// one cache line: a summary byte answers "is any card of this line
  /// dirty" without pulling the line itself through the scan.
  static constexpr unsigned SummaryShift = 6;
  /// Cards covered by one summary chunk.
  static constexpr size_t SummaryCards = size_t(1) << SummaryShift;

  /// Creates a card table over \p HeapBytes of arena with cards of
  /// \p CardBytes (a power of two in [MinCardBytes, MaxCardBytes]).
  CardTable(uint64_t HeapBytes, uint32_t CardBytes);

  /// Card size in bytes.
  uint32_t cardBytes() const { return 1u << Shift; }

  /// Number of cards covering the heap.
  size_t numCards() const { return Table.size(); }

  /// Card index of the card containing arena byte \p Offset.
  size_t cardIndexFor(uint64_t Offset) const { return Offset >> Shift; }

  /// Arena byte offset of the first byte of card \p Index.
  uint64_t cardStart(size_t Index) const { return uint64_t(Index) << Shift; }

  //===--------------------------------------------------------------------===
  // Summary geometry.
  //===--------------------------------------------------------------------===

  /// Number of summary chunks covering the card table (the last chunk may
  /// cover fewer than SummaryCards cards).
  size_t numSummaryChunks() const { return Summary.size(); }

  /// Summary chunk containing card \p CardIndex.
  size_t summaryChunkFor(size_t CardIndex) const {
    return CardIndex >> SummaryShift;
  }

  /// First card index of chunk \p Chunk.
  size_t chunkCardBegin(size_t Chunk) const { return Chunk << SummaryShift; }

  /// One past the last card index of chunk \p Chunk.
  size_t chunkCardEnd(size_t Chunk) const {
    size_t End = (Chunk + 1) << SummaryShift;
    return End < Table.size() ? End : Table.size();
  }

  //===--------------------------------------------------------------------===
  // Marking (mutator write barrier + collector re-mark).
  //===--------------------------------------------------------------------===

  /// Mutator write barrier: dirties the card containing \p SlotOffset and
  /// its summary byte.  Two plain stores, no read-modify-write — DLG's
  /// fine-grained atomicity requirement for the barrier is preserved.  The
  /// summary store is a *release* store (free on x86, a plain stlr on ARM):
  /// card byte first, then summary, so a collector whose acquiring summary
  /// exchange consumes the mark also observes the card byte it covers (and
  /// the pointer store before both).  Formally a later plain store by
  /// another mutator to the same summary byte breaks this release sequence;
  /// like clearCard's store-then-mark argument below, the protocol leans on
  /// the machine's per-location coherence there, and any mark that slips
  /// through simply stays dirty for the next collection.
  void markCard(uint64_t SlotOffset) {
    size_t Index = Table.indexFor(SlotOffset);
    Table.entry(Index).store(1, std::memory_order_relaxed);
    Summary.entry(Index >> SummaryShift).store(1, std::memory_order_release);
  }

  /// Dirties card \p Index and its summary byte directly (collector side of
  /// the Section 7.2 three-step protocol, step 3).  Because the re-mark
  /// sets the summary too, a chunk left with a dirty card is always left
  /// with a set summary byte — the chunk level needs no re-set step of its
  /// own.
  void markCardIndex(size_t Index) {
    Table.entry(Index).store(1, std::memory_order_relaxed);
    Summary.entry(Index >> SummaryShift)
        .store(1, std::memory_order_release);
  }

  /// Returns whether card \p Index is dirty.
  bool isDirty(size_t Index) const {
    return Table.entry(Index).load(std::memory_order_relaxed) != 0;
  }

  /// Returns whether summary chunk \p Chunk is marked.
  bool isSummaryDirty(size_t Chunk) const {
    return Summary.entry(Chunk).load(std::memory_order_relaxed) != 0;
  }

  //===--------------------------------------------------------------------===
  // Clearing (collector only).
  //===--------------------------------------------------------------------===

  /// Clears the dirty mark of card \p Index against concurrent mutator
  /// marking (the aging collector's Section 7.2 three-step protocol).  An
  /// acquiring exchange: if it consumes a mark, the pointer store that
  /// preceded the mark (mutator order: store, then mark) is visible to the
  /// collector's subsequent scan of the card, so the scan either finds the
  /// inter-generational pointer and re-marks, or the mutator's mark landed
  /// after the clear and the card simply stays dirty.
  void clearCard(size_t Index) {
    Table.entry(Index).exchange(0, std::memory_order_acq_rel);
  }

  /// Clears the dirty mark of card \p Index when no mutator can be marking
  /// concurrently.  The simple collector's ClearCards runs between the
  /// first and second handshakes, where the Figure 1 barrier does not mark
  /// cards at all (Section 7.1), so a relaxed store suffices — and it is
  /// worth it: this runs once per dirty card on every partial collection.
  void clearCardUncontended(size_t Index) {
    Table.entry(Index).store(0, std::memory_order_relaxed);
  }

  /// Clears summary chunk \p Chunk against concurrent mutator marking: the
  /// Section 7.2 three-step clear lifted to the chunk level, step 1.  The
  /// caller then scans the chunk's cards (running the per-card protocol on
  /// each dirty one); a mark consumed by this exchange left its card byte
  /// visible to that scan (markCard's release ordering), and a mark landing
  /// after it simply re-sets the byte.  Step 3 is implicit: every path that
  /// leaves a card dirty (mutator markCard, collector markCardIndex) also
  /// sets the summary.
  void clearSummaryAcquire(size_t Chunk) {
    Summary.entry(Chunk).exchange(0, std::memory_order_acq_rel);
  }

  /// Clears summary chunk \p Chunk when no mutator can be marking
  /// concurrently (simple-promotion ClearCards; see clearCardUncontended).
  void clearSummaryUncontended(size_t Chunk) {
    Summary.entry(Chunk).store(0, std::memory_order_relaxed);
  }

  /// Clears every card covering arena range [\p ByteBegin, \p ByteEnd)
  /// with plain stores; summary bytes stay (conservatively) set.  Used when
  /// a large-object run is reclaimed: its cards can no longer guard live
  /// pointers, and leaving them dirty would make freed space look
  /// scan-worthy until the blocks are reused.  Callers guarantee nothing
  /// can be marking these cards concurrently (the region is garbage).
  void clearCardsOverRange(uint64_t ByteBegin, uint64_t ByteEnd) {
    if (ByteBegin >= ByteEnd)
      return;
    Table.clearRange(cardIndexFor(ByteBegin), cardIndexFor(ByteEnd - 1) + 1);
  }

  /// Clears every card and every summary byte (used when initiating a full
  /// collection).  May race with mutator marking (the simple collector's
  /// InitFullCollection runs before the first handshake), so the SUMMARY
  /// level clears first: a concurrent markCard (card byte, then summary
  /// byte) whose card store survives our card sweep made its summary store
  /// after our summary sweep too, leaving summary-set/card-clean — the
  /// conservative direction.  The reverse order could strand a dirty card
  /// under a clean summary, invisible to every future summary-guided scan.
  void clearAll() {
    Summary.clearAll();
    Table.clearAll();
  }

  //===--------------------------------------------------------------------===
  // Scanning.
  //===--------------------------------------------------------------------===

  /// Invokes \p Callback(CardIndex) for every dirty card with an index in
  /// [\p IndexBegin, \p IndexEnd), ascending, using racy word hints to skip
  /// clean regions quickly.  A card set concurrently with the scan may be
  /// skipped — equivalent to the scan having passed it already; it simply
  /// stays dirty for the next collection.  This is the per-chunk scanning
  /// primitive of the summary-guided card scan (and the whole-table walk of
  /// the linear fallback): lanes claim disjoint index ranges.
  template <typename Fn>
  void forEachDirtyIndexInRange(size_t IndexBegin, size_t IndexEnd,
                                Fn Callback) const {
    Table.forEachNonZeroEntryInRange(IndexBegin, IndexEnd, Callback);
  }

  /// Invokes \p Callback(CardIndex) for every dirty card (whole table).
  template <typename Fn> void forEachDirtyIndex(Fn Callback) const {
    forEachDirtyIndexInRange(0, Table.size(), Callback);
  }

  /// Invokes \p Callback(Chunk) for every marked summary chunk in
  /// [\p ChunkBegin, \p ChunkEnd), ascending.  Clean space is swept eight
  /// summary bytes — 512 cards — per hint load; the same concurrent-set
  /// allowance as forEachDirtyIndexInRange applies.  This is the work
  /// generator of the sharded card scan: lanes steal dirty chunks, not raw
  /// card-index ranges.
  template <typename Fn>
  void forEachDirtySummaryChunkInRange(size_t ChunkBegin, size_t ChunkEnd,
                                       Fn Callback) const {
    Summary.forEachNonZeroEntryInRange(ChunkBegin, ChunkEnd, Callback);
  }

  /// Counts currently dirty cards (statistics for Figure 22).
  size_t countDirty() const;

  /// Base address of the backing byte array, for page-touch registration.
  const void *data() const { return Table.data(); }

private:
  unsigned Shift;
  AtomicByteTable Table;
  AtomicByteTable Summary;
};

} // namespace gengc

#endif // GENGC_HEAP_CARDTABLE_H
