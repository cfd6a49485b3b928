//===- gcperf/driver/Serve.cpp - Open-loop serve-churn workload -----------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// serve-churn: the churn server scenario (workload/Scenario.cpp) as an open
// loop.  Requests are due on a fixed schedule at the scenario's rate; the
// scenario's workers pull the next request, spin-yield (answering
// handshakes) until it is due, and handle it: a linked graph of nodes kept
// in the worker's root window, session-table reads with an occasional new
// session, and a cache lookup whose miss replaces an entry.  Each request's
// content is a pure function of (seed, request index).
//
// Two departures from the scenario keep the verifier exact: each worker
// writes only its own share of the session ring and of the cache (slots
// congruent to its worker number), so a slot's expected content never
// depends on a race between workers; and the compute result is summed
// instead of stored into a node, whose first data word carries its stamp.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cmath>
#include <thread>

#include "Workload.h"
#include "runtime/RootScope.h"
#include "workload/Scenario.h"

using namespace gengc;
using namespace gengc::workload;

namespace gcperf {
namespace {

/// In traced rounds, one request in this many records child spans for
/// every runtime call it makes (every request records its own span).
constexpr uint64_t SampleEvery = 128;
/// Marks the id of a cooperate call made while pacing, outside a request.
constexpr uint64_t PacingId = 1ull << 63;
/// Draw streams of one request.
enum : uint64_t {
  StreamNode = 1, // keyed by node key: payload size
  StreamNewSession = 2,
  StreamCacheSlot = 3,
  StreamCacheHit = 4,
  StreamCompute = 5,
  StreamTouch = 6,
};

/// Everything one run() shares between its workers and its monitor.
struct Schedule {
  uint64_t Begin = 0;
  uint64_t End = 0;
  uint64_t RoundRequests = 0;
  bool Trace = false;
  uint64_t T0 = 0;
  double IntervalNanos = 0.0;

  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Completed{0};
  /// Set once the monitor has taken its last sample: workers may then
  /// check their windows and detach.
  std::atomic<bool> Release{false};

  /// Per request (index - Begin): nanoseconds from due time to completion,
  /// from due time to start, and from start to completion.
  std::vector<uint32_t> LatencyNanos, LateNanos, ServiceNanos;

  /// Per worker, written by that worker only.
  std::vector<uint64_t> Checksums, Allocations, GiveUps;
  std::vector<Verdict> Windows;

  uint64_t due(uint64_t Idx) const {
    return T0 + uint64_t(double(Idx - Begin + 1) * IntervalNanos);
  }
  bool traced(uint64_t Idx) const {
    return Trace && (Idx - Begin) / RoundRequests % 2 == 1;
  }
};

/// CPU and runtime counters at one round boundary.
struct Sample {
  uint64_t Wall = 0;
  double ProcessCpu = 0.0;
  double WorkerCpu = 0.0;
  double MonitorCpu = 0.0;
  MetricsSnapshot Metrics;
};

uint32_t saturate(uint64_t Nanos) {
  return Nanos > UINT32_MAX ? UINT32_MAX : uint32_t(Nanos);
}

class ServeWorkload final : public Workload {
public:
  ServeWorkload(const ServerProfile &SP, uint64_t Seed, bool Tracing)
      : Workload(Seed, Tracing, SP.Workers), SP(SP),
        SessionClock(SP.Workers, 0) {
    GENGC_ASSERT(SP.SessionSlots % SP.Workers == 0 &&
                     SP.CacheSlots % SP.Workers == 0,
                 "table shares must split evenly between workers");
  }

  SetupTimes setUp() override;
  std::vector<Round> run(double Seconds, bool Trace) override;
  Verdict verify(bool Corrupt) override;
  uint64_t attempted() const override { return Issued; }
  Failures failures() const override {
    Failures F;
    F.GiveUps = GiveUps + SetupGiveUps;
    F.Unserved = Issued - Served;
    return F;
  }

private:
  void serve(Schedule &S, unsigned Worker);
  /// Handles request \p Idx; \returns false if an allocation gave up.
  bool handle(Mutator &WM, RootScope &Roots, size_t First, uint64_t Idx,
              unsigned Worker, SpanBuffer *Traced, SpanBuffer *Sampled,
              uint64_t &Sum, uint64_t &Failed);
  /// Checks the graph of request \p Idx held in a worker's root window.
  void checkGraph(Verdict &V, const RootScope &Roots, size_t First,
                  uint64_t Idx) const;
  Sample sample(std::vector<std::thread> &Workers) const;

  uint64_t nodeKey(uint64_t Idx, uint32_t J) const {
    return key(KeySpace::Work, Idx * SP.GraphNodesPerRequest + J);
  }
  uint32_t nodeBytes(uint64_t NodeKey) const {
    return pick(draw(Seed, NodeKey, StreamNode), SP.MinNodeBytes,
                SP.MaxNodeBytes);
  }
  bool newSession(uint64_t Idx) const {
    return SP.SessionSlots &&
           chance(draw(Seed, Idx, StreamNewSession), SP.NewSessionChance);
  }
  bool cacheMiss(uint64_t Idx) const {
    return SP.CacheSlots &&
           !chance(draw(Seed, Idx, StreamCacheHit), SP.CacheHitRate);
  }
  /// Operations of request \p Idx: its allocation steps (graph nodes with
  /// their links, a new session, a cache replacement).
  uint64_t opsOf(uint64_t Idx) const {
    return SP.GraphNodesPerRequest + newSession(Idx) + cacheMiss(Idx);
  }

  const ServerProfile SP;
  std::unique_ptr<Mutator> M;
  std::unique_ptr<LongLivedTable> Sessions, Cache;
  /// Key of the object each slot holds (~0: empty).
  std::vector<uint64_t> SessionKey, CacheKey;
  /// Per worker: FIFO clock over its share of the session ring.
  std::vector<uint64_t> SessionClock;

  uint64_t Issued = 0;
  uint64_t Served = 0;
  uint64_t Checksum = 0;
  uint64_t Allocations = 0;
  uint64_t GiveUps = 0;
  uint64_t SetupGiveUps = 0;
  uint64_t ExpectedAllocations = 0;
  Verdict WindowVerdict;
};

SetupTimes ServeWorkload::setUp() {
  SetupTimes Times;
  initRuntime(Times);

  uint64_t T0 = wallNanos();
  M = RT->attachMutator();
  Sessions = std::make_unique<LongLivedTable>(*RT, *M, SP.SessionSlots);
  stampAnchors(*Sessions, 1);
  Cache = std::make_unique<LongLivedTable>(*RT, *M, SP.CacheSlots);
  stampAnchors(*Cache, 2);
  SessionKey.assign(SP.SessionSlots, ~0ull);
  CacheKey.assign(SP.CacheSlots, ~0ull);
  for (size_t I = 0; I < Cache->size(); ++I) {
    uint64_t Key = key(KeySpace::CachePrefill, I);
    ObjectRef Entry = M->allocate(1, SP.CacheEntryBytes, TagCacheEntry);
    if (Entry == NullRef) {
      ++SetupGiveUps;
      continue;
    }
    storeDataWord(RT->heap(), Entry, 0, stamp(Seed, Key));
    M->writeRef(Cache->anchor(I), 0, Entry);
    CacheKey[I] = Key;
  }
  uint64_t T1 = wallNanos();
  RT->collector().collectSyncCooperating(CycleRequest::Full, *M);
  uint64_t T2 = wallNanos();

  SetupSpans.add(SpanKind::SetupLiveBuild, 0, T0, T1);
  SetupSpans.add(SpanKind::SetupTenure, 0, T1, T2);
  Times.LiveBuildNanos = T1 - T0;
  Times.TenureNanos = T2 - T1;
  return Times;
}

bool ServeWorkload::handle(Mutator &WM, RootScope &Roots, size_t First,
                           uint64_t Idx, unsigned Worker, SpanBuffer *Traced,
                           SpanBuffer *Sampled, uint64_t &Sum,
                           uint64_t &Failed) {
  Heap &H = RT->heap();
  uint64_t FailedBefore = Failed;

  // Ephemeral graph: a chain of nodes rooted in the worker's window until
  // the worker's next request overwrites it.
  ObjectRef Prev = NullRef;
  for (uint32_t J = 0; J < SP.GraphNodesPerRequest; ++J) {
    uint64_t Key = nodeKey(Idx, J);
    ObjectRef Node = allocateOp(WM, Sampled, Idx, SP.NodeRefSlots,
                                nodeBytes(Key), TagRequestNode);
    Roots.set(First + J, Node);
    if (Node == NullRef) {
      ++Failed;
      continue;
    }
    storeDataWord(H, Node, 0, stamp(Seed, Key));
    if (Prev != NullRef)
      writeRefOp(*RT, WM, Sampled, Idx, Node, 0, Prev);
    Prev = Node;
  }

  // Session layer: reads, sometimes a new session that FIFO-evicts the
  // oldest slot of this worker's share.
  uint64_t Touch = draw(Seed, Idx, StreamTouch);
  for (uint32_t T = 0; T < SP.SessionTouchesPerRequest; ++T)
    (void)Sessions->get(WM, pick(mix64(Touch + T), 0, SP.SessionSlots - 1));
  if (newSession(Idx)) {
    ObjectRef Sess = allocateOp(WM, Sampled, Idx, 1, SP.SessionBytes,
                                TagSession);
    if (Sess == NullRef) {
      ++Failed;
    } else {
      uint64_t Key = key(KeySpace::Session, Idx);
      storeDataWord(H, Sess, 0, stamp(Seed, Key));
      uint32_t Share = SP.SessionSlots / SP.Workers;
      uint32_t Slot = Worker + SP.Workers * uint32_t(SessionClock[Worker]++ %
                                                     Share);
      writeRefOp(*RT, WM, Sampled, Idx, Sessions->anchor(Slot), 0, Sess);
      SessionKey[Slot] = Key;
    }
  }

  // Cache lookup; a miss replaces the entry in this worker's share.
  uint32_t Slot =
      pick(draw(Seed, Idx, StreamCacheSlot), 0, SP.CacheSlots - 1);
  if (!cacheMiss(Idx)) {
    (void)Cache->get(WM, Slot);
  } else {
    ObjectRef Entry = allocateOp(WM, Sampled, Idx, 1, SP.CacheEntryBytes,
                                 TagCacheEntry);
    if (Entry == NullRef) {
      ++Failed;
    } else {
      uint64_t Key = key(KeySpace::CacheEntry, Idx);
      storeDataWord(H, Entry, 0, stamp(Seed, Key));
      uint32_t Own = Slot - Slot % SP.Workers + Worker;
      writeRefOp(*RT, WM, Sampled, Idx, Cache->anchor(Own), 0, Entry);
      CacheKey[Own] = Key;
    }
  }

  Sum += computeWork(draw(Seed, Idx, StreamCompute), SP.ComputePerRequest);
  cooperateOp(*RT, WM, Traced, Sampled, Idx);
  return Failed == FailedBefore;
}

void ServeWorkload::serve(Schedule &S, unsigned Worker) {
  std::unique_ptr<Mutator> WM = RT->attachMutator();
  SpanBuffer *Buffer = MutatorSpans[Worker].get();
  uint64_t Sum = 0, Failed = 0;
  uint64_t LastIdx = ~0ull;
  bool LastOk = false;
  {
    RootScope Roots(*WM);
    size_t First = Roots.addSlot(NullRef);
    for (uint32_t J = 1; J < SP.GraphNodesPerRequest; ++J)
      Roots.addSlot(NullRef);

    for (;;) {
      uint64_t Idx = S.Next.fetch_add(1, std::memory_order_relaxed);
      if (Idx >= S.End)
        break;
      SpanBuffer *Traced = S.traced(Idx) ? Buffer : nullptr;
      SpanBuffer *Sampled = Traced && Idx % SampleEvery == 0 ? Traced : nullptr;
      uint64_t Due = S.due(Idx);
      // Open-loop pacing, as in the scenario: spin-yield until due,
      // answering handshakes.  Sleeping would add the guest's wake-up
      // delay to start times; spinning without yielding lets a pacing
      // worker hold a vCPU the collector thread is queued on.
      while (wallNanos() < Due) {
        cooperateOp(*RT, *WM, Traced, false, Idx | PacingId);
        std::this_thread::yield();
      }
      uint64_t Start = wallNanos();
      LastOk = handle(*WM, Roots, First, Idx, Worker, Traced, Sampled, Sum,
                      Failed);
      uint64_t End = wallNanos();
      LastIdx = Idx;
      if (Traced)
        Traced->add(SpanKind::Request, Idx, Start, End,
                    Sampled ? SpanSampled : 0);
      uint64_t Off = Idx - S.Begin;
      S.LatencyNanos[Off] = saturate(End - Due);
      S.LateNanos[Off] = saturate(Start > Due ? Start - Due : 0);
      S.ServiceNanos[Off] = saturate(End - Start);
      S.Completed.fetch_add(1, std::memory_order_release);
    }

    {
      BlockedScope Blocked(*WM);
      while (!S.Release.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (LastIdx != ~0ull && LastOk)
      checkGraph(S.Windows[Worker], Roots, First, LastIdx);
  }
  S.Checksums[Worker] = Sum;
  S.GiveUps[Worker] = Failed;
  S.Allocations[Worker] = WM->allocatedObjects();
}

Sample ServeWorkload::sample(std::vector<std::thread> &Workers) const {
  Sample Out;
  Out.Metrics = RT->metrics();
  Out.ProcessCpu = processCpuSeconds();
  for (std::thread &T : Workers)
    Out.WorkerCpu += threadCpuSeconds(T.native_handle());
  Out.MonitorCpu = threadCpuSeconds();
  Out.Wall = wallNanos();
  return Out;
}

std::vector<Round> ServeWorkload::run(double Seconds, bool Trace) {
  Schedule S;
  S.RoundRequests = uint64_t(SP.RequestsPerSecond); // one second per round
  uint64_t NumRounds = std::max<uint64_t>(2, uint64_t(std::ceil(Seconds)));
  S.Begin = Issued;
  S.End = Issued + NumRounds * S.RoundRequests;
  S.Next = S.Begin;
  S.Trace = Trace;
  S.IntervalNanos = 1e9 / SP.RequestsPerSecond;
  uint64_t N = S.End - S.Begin;
  S.LatencyNanos.assign(N, 0);
  S.LateNanos.assign(N, 0);
  S.ServiceNanos.assign(N, 0);
  S.Checksums.assign(SP.Workers, 0);
  S.Allocations.assign(SP.Workers, 0);
  S.GiveUps.assign(SP.Workers, 0);
  S.Windows.assign(SP.Workers, Verdict());
  S.T0 = wallNanos() + 2'000'000; // lets the workers attach first

  std::vector<Sample> Samples;
  {
    // The monitor (this thread) stays a registered mutator, blocked: it
    // only samples clocks and metrics at round boundaries.
    BlockedScope Blocked(*M);
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < SP.Workers; ++W)
      Workers.emplace_back([this, &S, W] { serve(S, W); });
    for (uint64_t R = 0; R <= NumRounds; ++R) {
      uint64_t Target = R * S.RoundRequests;
      uint64_t Due = R == 0 ? S.T0 : S.due(S.Begin + Target - 1);
      while (wallNanos() < Due)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      // Wait for the round's requests to complete (bounded: a wedged
      // worker must not hang the run; its requests count as unserved).
      while (S.Completed.load(std::memory_order_acquire) < Target &&
             wallNanos() < Due + 5'000'000'000ull)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      Samples.push_back(sample(Workers));
    }
    S.Release.store(true, std::memory_order_release);
    for (std::thread &T : Workers)
      T.join();
  }

  Issued = S.End;
  Served += S.Completed.load();
  for (unsigned W = 0; W < SP.Workers; ++W) {
    Checksum += S.Checksums[W];
    Allocations += S.Allocations[W];
    GiveUps += S.GiveUps[W];
    WindowVerdict.merge(S.Windows[W]);
  }

  std::vector<Round> Rounds(NumRounds);
  for (uint64_t R = 0; R < NumRounds; ++R) {
    Round &Out = Rounds[R];
    const Sample &A = Samples[R], &B = Samples[R + 1];
    uint64_t First = S.Begin + R * S.RoundRequests;
    Out.BeginNanos = A.Wall;
    Out.EndNanos = B.Wall;
    Out.Traced = S.traced(First);
    double BusyNanos = 0.0;
    for (uint64_t Idx = First; Idx < First + S.RoundRequests; ++Idx) {
      uint64_t Off = Idx - S.Begin;
      Out.Ops += opsOf(Idx);
      ExpectedAllocations += opsOf(Idx);
      BusyNanos += S.ServiceNanos[Off];
      Out.LatencyUs.push_back(float(S.LatencyNanos[Off] * 1e-3));
      Out.LateUs.push_back(float(S.LateNanos[Off] * 1e-3));
    }
    double Process = B.ProcessCpu - A.ProcessCpu;
    double Workers = B.WorkerCpu - A.WorkerCpu;
    Out.BusySeconds = BusyNanos * 1e-9;
    // Worker CPU outside requests is pacing spin: charge the workers only
    // their service time.
    Out.CpuSeconds = Process - Workers + Out.BusySeconds;
    Out.GcCpuSeconds = Process - Workers - (B.MonitorCpu - A.MonitorCpu);
    Out.Counters = RuntimeCounters::between(A.Metrics, B.Metrics);
  }
  return Rounds;
}

void ServeWorkload::checkGraph(Verdict &V, const RootScope &Roots,
                               size_t First, uint64_t Idx) const {
  const Heap &H = RT->heap();
  for (uint32_t J = 0; J < SP.GraphNodesPerRequest; ++J) {
    uint64_t Key = nodeKey(Idx, J);
    ObjectRef Node = Roots.get(First + J);
    checkObject(V, H, Node, SP.NodeRefSlots, nodeBytes(Key), TagRequestNode,
                stamp(Seed, Key), Key);
    if (Node == NullRef)
      continue;
    V.check(loadRefSlot(H, Node, 0) ==
                (J == 0 ? NullRef : Roots.get(First + J - 1)),
            "request graph link", Key);
  }
}

Verdict ServeWorkload::verify(bool Corrupt) {
  Heap &H = RT->heap();
  if (Corrupt)
    for (size_t S = 0; S < CacheKey.size(); ++S)
      if (CacheKey[S] != ~0ull) {
        ObjectRef Obj = M->readRef(Cache->anchor(S), 0);
        storeDataWord(H, Obj, 0, loadDataWord(H, Obj, 0) ^ 1);
        break;
      }

  Verdict V = WindowVerdict;
  auto CheckTable = [&](const LongLivedTable &Table,
                        const std::vector<uint64_t> &Keys, uint32_t Bytes,
                        uint16_t Tag) {
    for (size_t S = 0; S < Keys.size(); ++S) {
      ObjectRef Obj = M->readRef(Table.anchor(S), 0);
      if (Keys[S] == ~0ull) {
        V.check(Obj == NullRef, "empty table slot", S);
        continue;
      }
      checkObject(V, H, Obj, 1, Bytes, Tag, stamp(Seed, Keys[S]), Keys[S]);
      if (Obj != NullRef)
        V.check(loadRefSlot(H, Obj, 0) == NullRef, "unused slot", Keys[S]);
      if (S % 1024 == 0)
        M->cooperate();
    }
  };
  CheckTable(*Sessions, SessionKey, SP.SessionBytes, TagSession);
  CheckTable(*Cache, CacheKey, SP.CacheEntryBytes, TagCacheEntry);
  checkAnchors(V, *Sessions, 1);
  checkAnchors(V, *Cache, 2);

  V.check(Served == Issued, "every scheduled request served", Issued);
  V.check(Allocations == ExpectedAllocations - GiveUps,
          "runtime allocation count vs requests", Issued);
  V.check(Checksum == expectedChecksum(Issued, StreamCompute,
                                       SP.ComputePerRequest),
          "compute checksum", Issued);
  return V;
}

} // namespace

std::unique_ptr<Workload> makeServeWorkload(const std::string &Scenario,
                                            uint64_t Seed, bool Tracing) {
  return std::make_unique<ServeWorkload>(serverScenarioByName(Scenario), Seed,
                                         Tracing);
}

} // namespace gcperf
