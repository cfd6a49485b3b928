//===- gcperf/driver/Workload.cpp - The benchmark's workloads -------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <thread>

using namespace gengc;
using namespace gengc::workload;

namespace gcperf {

RuntimeCounters RuntimeCounters::between(const MetricsSnapshot &Before,
                                         const MetricsSnapshot &After) {
  RuntimeCounters C;
  C.Stalls = After.StallNanos.count() - Before.StallNanos.count();
  C.StallNanos = After.StallNanos.TotalNanos - Before.StallNanos.TotalNanos;
  C.Refills = After.AllocRefills - Before.AllocRefills;
  C.RefillSteals = After.AllocRefillSteals - Before.AllocRefillSteals;
  C.ShardContentions =
      After.AllocShardContentions - Before.AllocShardContentions;
  C.CarveFallbacks = After.AllocCarveFallbacks - Before.AllocCarveFallbacks;
  for (unsigned I = 0; I < LogHistogram::NumBuckets; ++I)
    C.Handshakes.Buckets[I] =
        After.HandshakeNanos.Buckets[I] - Before.HandshakeNanos.Buckets[I];
  C.Handshakes.TotalNanos =
      After.HandshakeNanos.TotalNanos - Before.HandshakeNanos.TotalNanos;
  return C;
}

void RuntimeCounters::add(const RuntimeCounters &Other) {
  Stalls += Other.Stalls;
  StallNanos += Other.StallNanos;
  Refills += Other.Refills;
  RefillSteals += Other.RefillSteals;
  ShardContentions += Other.ShardContentions;
  CarveFallbacks += Other.CarveFallbacks;
  Handshakes.merge(Other.Handshakes);
}

/// Spans one traced mutator thread may keep: enough for a minute of
/// sampling at the rates Batch.cpp and Serve.cpp use.  reserve() only
/// commits the pages actually written.
static constexpr size_t MutatorSpanCapacity = size_t(4) << 20;

Workload::Workload(uint64_t Seed, bool Tracing, unsigned MutatorBuffers)
    : Seed(Seed) {
  for (unsigned I = 0; I < MutatorBuffers; ++I)
    MutatorSpans.push_back(
        std::make_unique<SpanBuffer>(Tracing ? MutatorSpanCapacity : 0));
}

std::vector<const SpanBuffer *> Workload::spanBuffers() const {
  std::vector<const SpanBuffer *> Out = {&SetupSpans};
  for (const auto &B : MutatorSpans)
    Out.push_back(B.get());
  return Out;
}

void Workload::initRuntime(SetupTimes &Times) {
  uint64_t T0 = wallNanos();
  RT = std::make_unique<Runtime>(benchConfig());
  uint64_t T1 = wallNanos();
  SetupSpans.add(SpanKind::SetupInit, 0, T0, T1);
  Times.InitNanos = T1 - T0;
  RT->addGcObserver(Cycles);
}

void Workload::stampAnchors(const LongLivedTable &Table, uint32_t TableId) {
  for (size_t I = 0; I < Table.size(); ++I)
    storeDataWord(
        RT->heap(), Table.anchor(I), 0,
        stamp(Seed, key(KeySpace::Anchor, uint64_t(TableId) << 32 | I)));
}

void Workload::checkAnchors(Verdict &V, const LongLivedTable &Table,
                            uint32_t TableId,
                            const std::vector<uint32_t> *Lateral) const {
  const Heap &H = RT->heap();
  for (size_t I = 0; I < Table.size(); ++I) {
    uint64_t Key = key(KeySpace::Anchor, uint64_t(TableId) << 32 | I);
    checkObject(V, H, Table.anchor(I), LongLivedTable::AnchorSlots, 8,
                TagAnchor, stamp(Seed, Key), Key);
    if (!Lateral)
      continue;
    uint32_t To = (*Lateral)[I];
    V.check(loadRefSlot(H, Table.anchor(I), 1) ==
                (To == ~0u ? NullRef : Table.anchor(To)),
            "anchor lateral link", Key);
  }
}

uint64_t Workload::expectedChecksum(uint64_t Count, uint64_t Stream,
                                    uint32_t Iterations) const {
  constexpr unsigned Threads = 3;
  uint64_t Parts[Threads] = {};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      uint64_t Sum = 0;
      for (uint64_t I = Count * T / Threads; I < Count * (T + 1) / Threads;
           ++I)
        Sum += computeWork(draw(Seed, I, Stream), Iterations);
      Parts[T] = Sum;
    });
  uint64_t Sum = 0;
  for (unsigned T = 0; T < Threads; ++T) {
    Pool[T].join();
    Sum += Parts[T];
  }
  return Sum;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       bool Trace) {
  if (Name == "batch-javac")
    return makeBatchWorkload("javac", Seed, Trace);
  if (Name == "batch-db")
    return makeBatchWorkload("db", Seed, Trace);
  if (Name == "serve-churn")
    return makeServeWorkload("churn", Seed, Trace);
  return nullptr;
}

} // namespace gcperf
