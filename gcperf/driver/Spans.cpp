//===- gcperf/driver/Spans.cpp - In-memory spans of a traced run ----------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>

#include "support/Timer.h"

using namespace gengc;

namespace gcperf {

static const char *spanKindName(SpanKind Kind) {
  static const char *const Names[] = {
      "setup.init", "setup.live_build", "setup.tenure_gc", "op",
      "request",    "alloc",            "store",           "cooperate",
      "cycle",      "residue",          "clear",           "mark",
      "card_scan",  "trace",            "term_scan",       "sweep"};
  static_assert(sizeof(Names) / sizeof(Names[0]) == size_t(SpanKind::NumKinds));
  return Names[size_t(Kind)];
}

void CycleLog::onGcCycleEnd(const CycleStats &Cycle, uint64_t) {
  uint64_t Now = nowNanos();
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.push_back({Now, Cycle});
}

std::vector<CycleLog::Entry> CycleLog::endedIn(
    const std::vector<std::pair<uint64_t, uint64_t>> &Windows) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Entry> Out;
  for (const Entry &E : Entries)
    for (const auto &[Begin, End] : Windows)
      if (E.EndNanos >= Begin && E.EndNanos < End) {
        Out.push_back(E);
        break;
      }
  return Out;
}

void appendCycleSpans(SpanBuffer &Out,
                      const std::vector<CycleLog::Entry> &Cycles) {
  uint64_t Index = 0;
  for (const CycleLog::Entry &E : Cycles) {
    const CycleStats &C = E.Stats;
    uint64_t Start = E.EndNanos - C.DurationNanos;
    uint64_t At = Start;
    auto Phase = [&](SpanKind Kind, uint64_t Nanos) {
      Out.add(Kind, Index, At, At + Nanos);
      At += Nanos;
    };
    Phase(SpanKind::Residue, C.ResidueNanos);
    Phase(SpanKind::Clear, C.ClearNanos);
    Out.add(SpanKind::CardScan, Index, At, At + C.CardScanNanos);
    Phase(SpanKind::Mark, C.MarkNanos);
    Out.add(SpanKind::TermScan, Index,
            At + C.TraceNanos - C.TraceTermScanNanos, At + C.TraceNanos);
    Phase(SpanKind::Trace, C.TraceNanos);
    Phase(SpanKind::Sweep, C.SweepNanos);
    Out.add(SpanKind::Cycle, Index, Start, E.EndNanos,
            SpanSampled | (C.Kind == CycleKind::Full ? SpanFullCycle : 0));
    ++Index;
  }
}

/// True for the direct children of a root (Op, Request or Cycle), whose
/// durations are subtracted from the root's self time.  Grandchildren (card
/// scan, termination scan) are already inside their phase.
static bool isRootChild(SpanKind Kind) {
  switch (Kind) {
  case SpanKind::Alloc:
  case SpanKind::Store:
  case SpanKind::Cooperate:
  case SpanKind::Residue:
  case SpanKind::Clear:
  case SpanKind::Mark:
  case SpanKind::Trace:
  case SpanKind::Sweep:
    return true;
  default:
    return false;
  }
}

SpanSummary summarize(const std::vector<const SpanBuffer *> &Buffers,
                      uint8_t FlagMask, uint8_t FlagValue) {
  SpanSummary Sum;
  for (const SpanBuffer *B : Buffers) {
    // Children are recorded before their root (they end first), and each
    // buffer has one writer, so a root's children are the run of spans
    // with its id immediately before it.
    uint64_t PendingId = ~0ull;
    double ChildNanos = 0.0;
    for (const Span &S : B->spans()) {
      double Nanos = double(S.nanos());
      if (isRootChild(S.Kind)) {
        if (S.Id != PendingId) {
          PendingId = S.Id;
          ChildNanos = 0.0;
        }
        ChildNanos += Nanos;
      } else if (S.Flags & SpanSampled) {
        Sum[S.Kind].SelfRootNanos += Nanos;
        Sum[S.Kind].SelfNanos += Nanos - (S.Id == PendingId ? ChildNanos : 0);
        PendingId = ~0ull;
        ChildNanos = 0.0;
      }
      if ((S.Flags & FlagMask) != FlagValue)
        continue;
      KindSummary &K = Sum[S.Kind];
      ++K.Count;
      K.TotalNanos += Nanos;
      K.Nanos.push_back(Nanos);
    }
  }
  return Sum;
}

bool writeSpans(const std::string &Path,
                const std::vector<const SpanBuffer *> &Buffers,
                uint64_t Origin) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "kind,id,start_ns,dur_ns,flags\n");
  for (const SpanBuffer *B : Buffers)
    for (const Span &S : B->spans())
      std::fprintf(F, "%s,%llu,%lld,%llu,%u\n", spanKindName(S.Kind),
                   (unsigned long long)S.Id,
                   (long long)(int64_t(S.Start) - int64_t(Origin)),
                   (unsigned long long)S.nanos(), unsigned(S.Flags));
  return std::fclose(F) == 0;
}

} // namespace gcperf
