//===- heap/Block.h - 64 KiB block descriptors ------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena is carved into 64 KiB blocks.  A block is either free, reserved
/// (block 0, so that arena offset 0 can serve as the null reference),
/// dedicated to one small-object size class, or part of a large-object run.
/// Descriptors live in a dense side array owned by the Heap; the arena
/// itself holds no block metadata, keeping sweep's page footprint on the
/// side tables (see Figure 15 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_BLOCK_H
#define GENGC_HEAP_BLOCK_H

#include <atomic>
#include <cstdint>

namespace gengc {

/// What a block currently holds.
enum class BlockState : uint8_t {
  /// Unused; available for carving or large runs.
  Free,
  /// Permanently unused (block 0 only; reserves the null reference).
  Reserved,
  /// Carved into fixed-size cells of one size class.
  SizeClass,
  /// First block of a large-object run; the object starts at its base.
  LargeStart,
  /// Continuation block of a large-object run.
  LargeCont,
};

/// Side metadata for one 64 KiB block.
///
/// Every State transition into or out of Free happens under the heap's
/// block mutex, but GC worker lanes read descriptors without it (sweep,
/// card scan, recolor all classify blocks by State).  State is therefore
/// atomic, and writers populate the other fields *before* storing an
/// object-holding State: a reader that observes SizeClass or LargeStart
/// through the State load is guaranteed to see the matching field values.
struct BlockDescriptor {
  std::atomic<BlockState> State{BlockState::Free};
  /// Size-class index (State == SizeClass).
  uint8_t SizeClassIdx = 0;
  /// Cell size in bytes (State == SizeClass).
  uint32_t CellBytes = 0;
  /// ceil(2^32 / CellBytes): cell-index computation by multiply-shift
  /// instead of division (exact for block offsets below 2^16).  The card
  /// scan does this once per dirty card, which makes division measurable.
  uint32_t CellRecip = 0;
  /// Number of usable cells (State == SizeClass).  The tail of the block is
  /// unused when CellBytes does not divide the block size.
  uint32_t NumCells = 0;
  /// Requested object size in bytes (State == LargeStart).
  uint32_t LargeBytes = 0;
  /// Number of blocks in the run (State == LargeStart).
  uint32_t RunBlocks = 0;
  /// Block index of the run's first block (State == LargeCont).
  uint32_t RunStart = 0;
};

/// Returns a printable name of \p State for diagnostics.
const char *blockStateName(BlockState State);

} // namespace gengc

#endif // GENGC_HEAP_BLOCK_H
