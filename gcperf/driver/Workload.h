//===- gcperf/driver/Workload.h - The benchmark's workloads -----*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface the driver's main loop runs every workload through:
/// set up a runtime with its initial live set, run rounds of fixed work,
/// verify everything the workload keeps reachable.  The workloads drive
/// core/Runtime and runtime/Mutator directly (not workload::runWorkload or
/// runScenario), because the traced run times the calls those hide.
///
//===----------------------------------------------------------------------===//

#ifndef GCPERF_DRIVER_WORKLOAD_H
#define GCPERF_DRIVER_WORKLOAD_H

#include <memory>

#include "Common.h"
#include "Spans.h"
#include "workload/Program.h"

namespace gcperf {

/// Object tags, so heap dumps of a benchmark run are readable (the
/// LongLivedTable uses 1, 2 and 4 for its directory, leaves and anchors).
enum : uint16_t {
  TagWork = 3,
  TagAnchor = 4,
  TagRequestNode = 5,
  TagSession = 6,
  TagCacheEntry = 7,
  TagPopulated = 8,
};

/// Stamp key spaces of the objects the workloads create.
enum class KeySpace : uint64_t {
  Work,         ///< batch operation k / request node (idx * nodes + j)
  Populated,    ///< batch-db's initial database entry i
  Anchor,       ///< long-lived table anchor (table << 32 | i)
  Session,      ///< session created by request idx
  CacheEntry,   ///< cache entry created by request idx
  CachePrefill, ///< cache entry i created by set-up
};

inline uint64_t key(KeySpace Space, uint64_t N) {
  return (uint64_t(Space) << 56) | N;
}

/// Wall time of the three set-up steps of one repetition.
struct SetupTimes {
  uint64_t InitNanos = 0;
  uint64_t LiveBuildNanos = 0;
  uint64_t TenureNanos = 0;

  uint64_t totalNanos() const {
    return InitNanos + LiveBuildNanos + TenureNanos;
  }
};

/// Runtime counters over one round: differences of two metrics()
/// snapshots.
struct RuntimeCounters {
  uint64_t Stalls = 0;
  uint64_t StallNanos = 0;
  uint64_t Refills = 0;
  uint64_t RefillSteals = 0;
  uint64_t ShardContentions = 0;
  uint64_t CarveFallbacks = 0;
  gengc::HistogramSnapshot Handshakes;

  /// \p After minus \p Before.
  static RuntimeCounters between(const gengc::MetricsSnapshot &Before,
                                 const gengc::MetricsSnapshot &After);
  void add(const RuntimeCounters &Other);
};

/// One round: a fixed amount of work (batch: a fixed operation count;
/// serve-churn: a fixed count of scheduled requests).
struct Round {
  uint64_t BeginNanos = 0;
  uint64_t EndNanos = 0;
  bool Traced = false;
  /// Mutator operations completed.
  uint64_t Ops = 0;
  /// Time mutators spent serving those operations: the round's wall time
  /// in the closed loop, the sum of request service times in the open
  /// loop (pacing excluded).
  double BusySeconds = 0.0;
  /// Process CPU charged to the round's work; the open loop subtracts the
  /// CPU its workers burn spinning while pacing.
  double CpuSeconds = 0.0;
  /// Process CPU minus the benchmark's own threads: the collector.
  double GcCpuSeconds = 0.0;
  /// Open loop only: each request's latency from its due time to its
  /// completion, and how late it started after its due time.
  std::vector<float> LatencyUs;
  std::vector<float> LateUs;
  RuntimeCounters Counters;
};

/// The runtime calls one operation makes.  \p Sampled is the span buffer
/// of a sampled operation in a traced round (null otherwise); each call is
/// then recorded as a child span of operation \p Id.
inline gengc::ObjectRef allocateOp(gengc::Mutator &M, SpanBuffer *Sampled,
                                   uint64_t Id, uint32_t RefSlots,
                                   uint32_t DataBytes, uint16_t Tag) {
  if (!Sampled)
    return M.allocate(RefSlots, DataBytes, Tag);
  uint64_t T0 = wallNanos();
  gengc::ObjectRef Obj = M.allocate(RefSlots, DataBytes, Tag);
  Sampled->add(SpanKind::Alloc, Id, T0, wallNanos());
  return Obj;
}

/// writeRef; the span is flagged with whether a cycle was in progress.
inline void writeRefOp(gengc::Runtime &RT, gengc::Mutator &M,
                       SpanBuffer *Sampled, uint64_t Id, gengc::ObjectRef X,
                       uint32_t Slot, gengc::ObjectRef Y) {
  if (!Sampled) {
    M.writeRef(X, Slot, Y);
    return;
  }
  uint8_t Flags = RT.state().isCollecting() ? SpanCollecting : 0;
  uint64_t T0 = wallNanos();
  M.writeRef(X, Slot, Y);
  Sampled->add(SpanKind::Store, Id, T0, wallNanos(), Flags);
}

/// cooperate.  In a traced round (\p Traced non-null) a call that answers
/// a pending handshake is always recorded, flagged SpanResponded; other
/// calls only when \p Sampled.
inline void cooperateOp(gengc::Runtime &RT, gengc::Mutator &M,
                        SpanBuffer *Traced, bool Sampled, uint64_t Id) {
  if (!Traced) {
    M.cooperate();
    return;
  }
  bool Pending =
      M.status() != RT.state().StatusC.load(std::memory_order_relaxed);
  if (!Pending && !Sampled) {
    M.cooperate();
    return;
  }
  uint64_t T0 = wallNanos();
  M.cooperate();
  Traced->add(SpanKind::Cooperate, Id, T0, wallNanos(),
              Pending ? SpanResponded : 0);
}

/// A workload instance: one runtime plus everything the workload keeps
/// reachable in it.  Destroying the instance detaches its mutators and
/// destroys the runtime.
class Workload {
public:
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Builds the runtime and the initial live set and runs the tenuring
  /// full collection, timing each step (and recording setup spans).
  virtual SetupTimes setUp() = 0;

  /// Runs rounds until \p Seconds have passed (at least two).  With
  /// \p Trace, every second round is traced.
  virtual std::vector<Round> run(double Seconds, bool Trace) = 0;

  /// Walks every root the workload keeps and checks every stamp and link,
  /// the operation count and the compute checksum.  \p Corrupt first
  /// overwrites one reachable object's stamp (the verdict self-test).
  virtual Verdict verify(bool Corrupt) = 0;

  /// Operations (batch) or requests (serve-churn) attempted on this
  /// instance so far, and the failures the workload itself observed
  /// (give-ups, unserved requests).
  virtual uint64_t attempted() const = 0;
  virtual Failures failures() const = 0;

  gengc::Runtime &runtime() { return *RT; }
  CycleLog &cycles() { return Cycles; }

  /// Every span buffer of this instance (set-up, mutator threads).
  std::vector<const SpanBuffer *> spanBuffers() const;

protected:
  /// \p Tracing sizes \p MutatorBuffers span buffers for traced rounds;
  /// without it only set-up spans are kept.
  Workload(uint64_t Seed, bool Tracing, unsigned MutatorBuffers);

  /// Constructs the runtime (timed as the init step).
  void initRuntime(SetupTimes &Times);

  /// Stamps every anchor of \p Table (table number \p TableId).
  void stampAnchors(const gengc::workload::LongLivedTable &Table,
                    uint32_t TableId);
  /// Checks every anchor's header, stamp and (when \p Lateral is given)
  /// lateral link.
  void checkAnchors(Verdict &V, const gengc::workload::LongLivedTable &Table,
                    uint32_t TableId,
                    const std::vector<uint32_t> *Lateral = nullptr) const;

  /// Sum of computeWork(draw(Seed, I, Stream), Iterations) over I in
  /// [0, Count), on up to three threads.
  uint64_t expectedChecksum(uint64_t Count, uint64_t Stream,
                            uint32_t Iterations) const;

  const uint64_t Seed;
  /// Declared before the runtime: the observer outlives the collector.
  CycleLog Cycles;
  SpanBuffer SetupSpans{16};
  std::vector<std::unique_ptr<SpanBuffer>> MutatorSpans;
  std::unique_ptr<gengc::Runtime> RT;
};

/// Creates the named workload (batch-javac, batch-db, serve-churn); null
/// for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       bool Trace);

/// The closed-loop workload shaped by the src/workload profile \p Profile
/// (Batch.cpp), and the open-loop one shaped by the server scenario
/// \p Scenario (Serve.cpp).
std::unique_ptr<Workload> makeBatchWorkload(const std::string &Profile,
                                            uint64_t Seed, bool Trace);
std::unique_ptr<Workload> makeServeWorkload(const std::string &Scenario,
                                            uint64_t Seed, bool Trace);

} // namespace gcperf

#endif // GCPERF_DRIVER_WORKLOAD_H
