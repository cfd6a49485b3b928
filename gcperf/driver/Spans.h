//===- gcperf/driver/Spans.h - In-memory spans of a traced run --*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's spans, recorded from the benchmark's own files around
/// its calls into the runtime: one root span per request (serve-churn) or
/// per sampled operation (batch), child spans for the allocate / writeRef /
/// cooperate calls inside it sharing the root's id, one span per set-up
/// step, and one span per collection cycle whose phase children are built
/// from the CycleStats the public GcObserver callback delivers.  Spans stay
/// in memory (one single-writer buffer per thread) and are written out at
/// exit; the per-layer metrics are derived from them.
///
//===----------------------------------------------------------------------===//

#ifndef GCPERF_DRIVER_SPANS_H
#define GCPERF_DRIVER_SPANS_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/Runtime.h"

namespace gcperf {

enum class SpanKind : uint8_t {
  SetupInit,      ///< Runtime constructor
  SetupLiveBuild, ///< building the initial live set
  SetupTenure,    ///< the tenuring full collection
  Op,             ///< one sampled batch operation (root)
  Request,        ///< one serve-churn request (root)
  Alloc,          ///< Mutator::allocate inside an Op / Request
  Store,          ///< Mutator::writeRef inside an Op / Request
  Cooperate,      ///< Mutator::cooperate inside an Op / Request
  Cycle,          ///< one collection cycle (root)
  Residue,        ///< cycle phases, children of Cycle ...
  Clear,
  Mark,
  CardScan, ///< ... child of Mark
  Trace,
  TermScan, ///< ... child of Trace
  Sweep,
  NumKinds
};

/// Span flag bits.
enum : uint8_t {
  /// Store: a cycle was in progress when the barrier ran.
  SpanCollecting = 1,
  /// Cooperate: the call answered a pending handshake.
  SpanResponded = 2,
  /// Cycle: a full (whole-heap) collection.
  SpanFullCycle = 4,
  /// Op / Request: every runtime call inside it has a child span, so its
  /// self time is meaningful.
  SpanSampled = 8,
};

struct Span {
  uint64_t Start = 0;
  uint64_t End = 0;
  /// Roots: the operation index, request index or cycle index.  Children
  /// carry their root's id.
  uint64_t Id = 0;
  SpanKind Kind = SpanKind::Op;
  uint8_t Flags = 0;

  uint64_t nanos() const { return End - Start; }
};

/// Append-only span store written by one thread; preallocated so that
/// recording never allocates inside a measured round.
class SpanBuffer {
public:
  explicit SpanBuffer(size_t Capacity) { Spans.reserve(Capacity); }

  void add(SpanKind Kind, uint64_t Id, uint64_t Start, uint64_t End,
           uint8_t Flags = 0) {
    if (Spans.size() == Spans.capacity()) {
      ++Dropped;
      return;
    }
    Spans.push_back({Start, End, Id, Kind, Flags});
  }

  const std::vector<Span> &spans() const { return Spans; }
  uint64_t dropped() const { return Dropped; }

private:
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
};

/// Keeps every completed cycle's statistics with the time the callback saw
/// it end.  Callbacks arrive on the collector thread.
class CycleLog : public gengc::GcObserver {
public:
  struct Entry {
    uint64_t EndNanos = 0;
    gengc::CycleStats Stats;
  };

  void onGcCycleEnd(const gengc::CycleStats &Cycle,
                    uint64_t CycleIndex) override;

  /// Cycles that ended inside one of \p Windows ([start, end) pairs).
  std::vector<Entry>
  endedIn(const std::vector<std::pair<uint64_t, uint64_t>> &Windows);

private:
  std::mutex Mutex;
  std::vector<Entry> Entries;
};

/// Appends each cycle of \p Cycles as a Cycle span (ending when the
/// observer saw it end) with its phase children laid out back to back in
/// pipeline order: residue, clear, mark (card scan at its start), trace
/// (termination scan at its end), sweep.
void appendCycleSpans(SpanBuffer &Out,
                      const std::vector<CycleLog::Entry> &Cycles);

/// Per-kind duration summary over a set of buffers.
struct KindSummary {
  uint64_t Count = 0;
  double TotalNanos = 0.0;
  std::vector<double> Nanos;
  /// Roots with every child recorded (sampled operations and requests,
  /// all cycles): their total duration, and the part of it not covered by
  /// their children.
  double SelfRootNanos = 0.0;
  double SelfNanos = 0.0;
};

/// Summaries indexed by SpanKind.  \p FlagMask / \p FlagValue select the
/// spans a summary counts (e.g. only responded cooperates); child coverage
/// for self time always uses every child.
struct SpanSummary {
  KindSummary Kinds[size_t(SpanKind::NumKinds)];
  KindSummary &operator[](SpanKind K) { return Kinds[size_t(K)]; }
};

/// Summarizes the spans of \p Buffers whose flags match
/// (Flags & FlagMask) == FlagValue; self time is computed for sampled Op
/// and Request roots and for Cycle roots.
SpanSummary summarize(const std::vector<const SpanBuffer *> &Buffers,
                      uint8_t FlagMask = 0, uint8_t FlagValue = 0);

/// Writes every span of \p Buffers as CSV (kind,id,start_ns,dur_ns,flags;
/// start relative to \p Origin).  \returns false if the file cannot be
/// written.
bool writeSpans(const std::string &Path,
                const std::vector<const SpanBuffer *> &Buffers,
                uint64_t Origin);

} // namespace gcperf

#endif // GCPERF_DRIVER_SPANS_H
