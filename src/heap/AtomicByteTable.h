//===- heap/AtomicByteTable.h - Byte-per-granule side tables ----*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A zero-initialized array of atomic bytes indexed by heap granule (16
/// bytes), mapped from zero pages (support/ZeroedArray.h): an entry's page
/// is committed when it is first touched.  The color table and the age
/// table are instances; the card table builds on the same idea with a
/// configurable granule (the card size).
/// Section 6 of the paper explains why these tables are *byte* tables with
/// no sharing: packing colors, ages and card marks into shared bytes would
/// force compare-and-swap on every write barrier, which the authors measured
/// to be too costly.  A dedicated byte per entry needs plain atomic stores.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_ATOMICBYTETABLE_H
#define GENGC_HEAP_ATOMICBYTETABLE_H

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "support/Assert.h"
#include "support/ZeroedArray.h"

namespace gengc {

/// Fixed-size array of atomic bytes, indexed by (byte offset >> Shift).
class AtomicByteTable {
public:
  /// Creates a table covering \p CoveredBytes of address space with one
  /// entry per 2^\p Shift bytes.  All entries start at zero, and the
  /// constructor writes none of them.
  AtomicByteTable(uint64_t CoveredBytes, unsigned Shift)
      : Shift(Shift), NumEntries(CoveredBytes >> Shift), Entries(NumEntries) {
    GENGC_ASSERT((CoveredBytes & ((1ull << Shift) - 1)) == 0,
                 "covered size must be a multiple of the granule");
  }

  /// Number of entries in the table.
  size_t size() const { return NumEntries; }

  /// Entry index for the byte at \p Offset.
  size_t indexFor(uint64_t Offset) const {
    size_t Index = Offset >> Shift;
    GENGC_ASSERT(Index < NumEntries, "side-table offset out of range");
    return Index;
  }

  /// Direct entry access by index.
  std::atomic<uint8_t> &entry(size_t Index) {
    GENGC_ASSERT(Index < NumEntries, "side-table index out of range");
    return Entries[Index];
  }
  const std::atomic<uint8_t> &entry(size_t Index) const {
    GENGC_ASSERT(Index < NumEntries, "side-table index out of range");
    return Entries[Index];
  }

  /// Entry access by covered byte offset.
  std::atomic<uint8_t> &entryFor(uint64_t Offset) {
    return Entries[indexFor(Offset)];
  }
  const std::atomic<uint8_t> &entryFor(uint64_t Offset) const {
    return Entries[indexFor(Offset)];
  }

  /// Resets every entry to zero.  Not atomic with respect to concurrent
  /// writers; callers serialize externally (only used at cycle boundaries
  /// and in tests).
  void clearAll() {
    for (size_t I = 0; I < NumEntries; ++I)
      Entries[I].store(0, std::memory_order_relaxed);
  }

  /// Number of entries covered by one racyWord hint.
  static constexpr size_t WordEntries = 8;

  /// Number of whole hint words in the table.
  size_t numWords() const { return NumEntries / WordEntries; }

  /// Racy 8-entry snapshot used to skip uninteresting table regions
  /// quickly (dirty-card scans, gray-verification scans).  The read is a
  /// deliberate benign race: callers use it only as a HINT whose misses
  /// are conservative — a concurrently-set byte the hint does not show is
  /// simply handled as if the scan had passed it already, which every
  /// caller tolerates (cards stay dirty; shades are caught by the
  /// termination protocol).  Interesting words are re-examined with
  /// proper atomic loads.
  uint64_t racyWord(size_t WordIndex) const {
    GENGC_ASSERT(WordIndex < numWords(), "hint word out of range");
#if GENGC_TSAN_ENABLED
    // Same hint, composed from relaxed per-byte loads so TSan does not
    // report the intentional race; slower, but only in sanitizer builds.
    uint64_t Word = 0;
    for (size_t I = 0; I < WordEntries; ++I)
      Word |= uint64_t(Entries[WordIndex * WordEntries + I].load(
                  std::memory_order_relaxed))
              << (8 * I);
    return Word;
#else
    uint64_t Word;
    std::memcpy(&Word,
                reinterpret_cast<const unsigned char *>(Entries.data()) +
                    WordIndex * WordEntries,
                sizeof(Word));
    return Word;
#endif
  }

  /// True if any byte of \p Word equals \p Value (SWAR zero-byte test).
  static bool wordContainsByte(uint64_t Word, uint8_t Value) {
    uint64_t Spread = 0x0101010101010101ull * Value;
    uint64_t X = Word ^ Spread;
    return ((X - 0x0101010101010101ull) & ~X & 0x8080808080808080ull) != 0;
  }

  /// Invokes \p Callback(ByteIdx) for every non-zero byte of \p Word in
  /// ascending byte order.  Bit trick: the lowest set bit of the word names
  /// the lowest non-zero byte, which is then masked out — cost is one
  /// count-trailing-zeros per *hit*, not one test per byte.
  template <typename Fn> static void forEachNonZeroByte(uint64_t Word, Fn Callback) {
    while (Word != 0) {
      unsigned Byte = unsigned(std::countr_zero(Word)) >> 3;
      Callback(Byte);
      Word &= ~(0xFFull << (Byte * 8));
    }
  }

  /// Invokes \p Callback(Index) for every entry in [\p Begin, \p End) whose
  /// byte is non-zero, ascending, sweeping clean space eight entries per
  /// racyWord load.  Hint-guided: only bytes the hint shows non-zero are
  /// re-examined with proper atomic loads, so a byte set concurrently with
  /// the walk may be skipped — every caller treats that as the walk having
  /// passed it already (see racyWord).
  template <typename Fn>
  void forEachNonZeroEntryInRange(size_t Begin, size_t End, Fn Callback) const {
    End = std::min(End, NumEntries);
    if (Begin >= End)
      return;
    auto Check = [&](size_t Index) {
      if (Entries[Index].load(std::memory_order_relaxed) != 0)
        Callback(Index);
    };
    size_t I = Begin;
    // Leading partial word: per-entry checks up to the word boundary.
    while (I != End && I % WordEntries != 0)
      Check(I++);
    // Word-aligned interior, eight entries per hint.
    while (I + WordEntries <= End) {
      if (uint64_t Word = racyWord(I / WordEntries))
        forEachNonZeroByte(Word, [&](unsigned Byte) { Check(I + Byte); });
      I += WordEntries;
    }
    // Trailing partial word.
    for (; I != End; ++I)
      Check(I);
  }

  /// Invokes \p Callback(Index) for every entry in [\p Begin, \p End) whose
  /// byte equals \p Value, ascending.  Word-gated like the historical
  /// gray-verification scan: a word whose racy hint contains \p Value has
  /// ALL of its entries re-examined with acquire loads (not only the bytes
  /// the hint showed), so a byte stored between the hint read and the
  /// per-entry load is still seen.  A byte set concurrently in a word the
  /// hint showed clean may be skipped — callers treat that exactly like the
  /// benign racyWord miss (the tracer's termination protocol re-discovers
  /// late shades on the next pass or the next cycle).
  template <typename Fn>
  void forEachEntryEqualInRange(size_t Begin, size_t End, uint8_t Value,
                                Fn Callback) const {
    End = std::min(End, NumEntries);
    if (Begin >= End)
      return;
    auto Check = [&](size_t Index) {
      if (Entries[Index].load(std::memory_order_acquire) == Value)
        Callback(Index);
    };
    size_t I = Begin;
    // Leading partial word: per-entry checks up to the word boundary.
    while (I != End && I % WordEntries != 0)
      Check(I++);
    // Word-aligned interior, eight entries per hint.
    while (I + WordEntries <= End) {
      if (wordContainsByte(racyWord(I / WordEntries), Value))
        for (size_t J = I; J != I + WordEntries; ++J)
          Check(J);
      I += WordEntries;
    }
    // Trailing partial word.
    for (; I != End; ++I)
      Check(I);
  }

  /// Zeroes every entry in [\p Begin, \p End) with plain stores.  Racing
  /// writers of *other* entries are unaffected (byte-sized stores); callers
  /// guarantee no one is concurrently setting the cleared entries.
  void clearRange(size_t Begin, size_t End) {
    End = std::min(End, NumEntries);
    for (size_t I = Begin; I < End; ++I)
      Entries[I].store(0, std::memory_order_relaxed);
  }

  /// Base address of the entry array (for page-touch accounting).
  const void *data() const { return Entries.data(); }

private:
  unsigned Shift;
  size_t NumEntries;
  ZeroedArray<std::atomic<uint8_t>> Entries;
};

} // namespace gengc

#endif // GENGC_HEAP_ATOMICBYTETABLE_H
