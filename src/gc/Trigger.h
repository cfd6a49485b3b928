//===- gc/Trigger.h - Collection triggering ---------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Triggering (Section 3.3).  Partial collections start once the bytes
/// allocated since the last collection exceed the configured young-
/// generation size (the paper's default and best choice: 4 MB).  Full (and
/// non-generational) collections start when the heap is "almost full" —
/// like the paper's JVM, whose heap grew from 1 MB toward a 32 MB maximum,
/// we keep a soft limit that starts small and grows when a collection fails
/// to bring occupancy down; the trigger fires against the soft limit.  The
/// full-collection calculation is identical with and without generations
/// (Section 8), so comparisons isolate the effect of generations.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TRIGGER_H
#define GENGC_GC_TRIGGER_H

#include <atomic>
#include <cstdint>

namespace gengc {

class Heap;

/// What the trigger asks for.
enum class CycleRequest : uint8_t {
  None = 0,
  Partial,
  Full,
};

/// Static triggering parameters.
struct TriggerPolicy {
  /// Young-generation size: partial collection once this many bytes have
  /// been allocated since the last collection.  Paper default: 4 MB.
  uint64_t YoungBytes = 4ull << 20;

  /// Initial soft heap limit (the paper's initial heap size: 1 MB).
  uint64_t InitialSoftBytes = 1ull << 20;

  /// Full collection fires when used bytes exceed this fraction of the
  /// soft limit.
  double FullFraction = 0.8;
};

/// Stateful trigger evaluated by the collector thread between cycles.
class Trigger {
public:
  /// \p Generational: the collector has generations, so the trigger also
  /// requests Partial cycles (false for the DLG baseline and the STW
  /// comparator).
  Trigger(const TriggerPolicy &Policy, bool Generational,
          uint64_t MaxHeapBytes);

  /// Decides whether a collection should start now.
  CycleRequest evaluate(const Heap &H) const;

  /// Adjusts the soft limit after a completed cycle.  \p LiveEstimateBytes
  /// is the collector's estimate of the live set (traced bytes for the
  /// whole-heap collectors; sweep-live minus during-cycle allocations for
  /// partial collections).
  void afterCycle(uint64_t LiveEstimateBytes);

  /// Current soft heap limit in bytes.
  uint64_t softLimitBytes() const {
    return SoftLimit.load(std::memory_order_relaxed);
  }

  /// Whether this trigger requests Partial cycles.
  bool generational() const { return Generational; }

private:
  TriggerPolicy Policy;
  bool Generational;
  uint64_t MaxHeapBytes;
  std::atomic<uint64_t> SoftLimit;
};

} // namespace gengc

#endif // GENGC_GC_TRIGGER_H
