//===- gcperf/driver/Batch.cpp - Closed-loop batch workloads --------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// batch-javac and batch-db: one mutator running the figure program's
// operation loop (workload/Program.cpp) with the javac or db profile's
// shape, as a closed loop of fixed-size rounds.  One operation is one
// allocate / link / promote / mutate / compute step.  Every decision of
// operation k is a pure function of (seed, k), so the verifier can
// recompute what each reachable object must look like.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <optional>

#include "Workload.h"
#include "runtime/RootScope.h"
#include "workload/Profile.h"

using namespace gengc;
using namespace gengc::workload;

namespace gcperf {
namespace {

/// In traced rounds, one operation in this many (chosen by a hash of its
/// index, so every position in a link batch gets sampled) records its
/// spans.  A power of two.
constexpr uint64_t SampleEvery = 512;
/// Young objects link to the first object of their batch of this many
/// (Program.cpp's BatchSize): young-to-young stores with bounded
/// reachability.
constexpr uint64_t LinkBatch = 32;
/// Draw streams of one operation.
enum : uint64_t {
  StreamShape = 1, // payload size; also the compute kernel's seed
  StreamLink = 2,
  StreamPromoteSlot = 3,
  StreamMutate = 4,
  StreamMutateFrom = 5,
  StreamMutateTo = 6,
};

class BatchWorkload final : public Workload {
public:
  BatchWorkload(const Profile &P, uint64_t RoundOps, uint64_t Seed,
                bool Tracing)
      : Workload(Seed, Tracing, 1), P(P), RoundOps(RoundOps),
        WindowSize(P.YoungWindow ? P.YoungWindow : 1) {}

  SetupTimes setUp() override;
  std::vector<Round> run(double Seconds, bool Trace) override;
  Verdict verify(bool Corrupt) override;
  uint64_t attempted() const override { return NextOp; }
  Failures failures() const override {
    Failures F;
    F.GiveUps = Failed.size() + SetupGiveUps;
    return F;
  }

private:
  Round round(bool Traced);
  void step(uint64_t K, SpanBuffer *Traced);

  uint32_t dataBytes(uint64_t Key) const {
    return pick(draw(Seed, Key, StreamShape), P.MinDataBytes, P.MaxDataBytes);
  }
  bool linked(uint64_t K) const {
    return K % LinkBatch != 0 &&
           chance(draw(Seed, K, StreamLink), P.YoungLinkRate);
  }
  bool failed(uint64_t K) const {
    return std::binary_search(Failed.begin(), Failed.end(), K);
  }
  /// Checks the object created for \p Key (an operation or a populated
  /// entry), and the batch head its first slot must point at.
  void checkEntry(Verdict &V, uint64_t Key, ObjectRef Obj) const;

  const Profile P;
  const uint64_t RoundOps;
  const uint32_t WindowSize;

  std::unique_ptr<Mutator> M;
  std::unique_ptr<LongLivedTable> Table;
  /// The young window: the last WindowSize operations' objects, rooted in
  /// the shadow stack like Java locals.
  std::optional<RootScope> Window;
  size_t WindowBase = 0;

  /// Key of the object each table slot holds (~0: never filled).
  std::vector<uint64_t> SlotKey;
  /// Target of each anchor's lateral link (~0u: none).
  std::vector<uint32_t> LateralTo;
  /// Operations whose allocation gave up, ascending.
  std::vector<uint64_t> Failed;
  uint64_t SetupGiveUps = 0;
  uint64_t SetupAllocs = 0;

  uint64_t NextOp = 0;
  uint64_t Checksum = 0;
  ObjectRef Head = NullRef;
};

SetupTimes BatchWorkload::setUp() {
  SetupTimes Times;
  initRuntime(Times);

  uint64_t T0 = wallNanos();
  M = RT->attachMutator();
  Table = std::make_unique<LongLivedTable>(*RT, *M, P.LongLivedSlots);
  stampAnchors(*Table, 0);
  Window.emplace(*M);
  WindowBase = Window->addSlot(NullRef);
  for (uint32_t I = 1; I < WindowSize; ++I)
    Window->addSlot(NullRef);
  SlotKey.assign(Table->size(), ~0ull);
  LateralTo.assign(Table->size(), ~0u);
  if (P.PopulateAtStart) {
    // db's in-memory database, built up-front and kept for the whole run.
    for (size_t I = 0; I < Table->size(); ++I) {
      uint64_t Key = key(KeySpace::Populated, I);
      ObjectRef Obj = M->allocate(P.RefSlots, dataBytes(Key), TagPopulated);
      if (Obj == NullRef) {
        ++SetupGiveUps;
        continue;
      }
      storeDataWord(RT->heap(), Obj, 0, stamp(Seed, Key));
      M->writeRef(Table->anchor(I), 0, Obj);
      SlotKey[I] = Key;
    }
  }
  uint64_t T1 = wallNanos();
  RT->collector().collectSyncCooperating(CycleRequest::Full, *M);
  uint64_t T2 = wallNanos();

  SetupSpans.add(SpanKind::SetupLiveBuild, 0, T0, T1);
  SetupSpans.add(SpanKind::SetupTenure, 0, T1, T2);
  Times.LiveBuildNanos = T1 - T0;
  Times.TenureNanos = T2 - T1;
  SetupAllocs = M->allocatedObjects();
  return Times;
}

void BatchWorkload::step(uint64_t K, SpanBuffer *Traced) {
  SpanBuffer *Sampled =
      Traced && (mix64(K) & (SampleEvery - 1)) == 0 ? Traced : nullptr;
  uint64_t Start = Sampled ? wallNanos() : 0;
  cooperateOp(*RT, *M, Traced, Sampled, K);

  uint64_t Shape = draw(Seed, K, StreamShape);
  ObjectRef Obj = allocateOp(*M, Sampled, K, P.RefSlots,
                             pick(Shape, P.MinDataBytes, P.MaxDataBytes),
                             TagWork);
  if (Obj == NullRef)
    Failed.push_back(K);
  else
    storeDataWord(RT->heap(), Obj, 0, stamp(Seed, K));

  // Link to the batch head (young-to-young), enter the window, and every
  // PromoteEvery-th operation tenure the object into a table slot.
  if (K % LinkBatch == 0)
    Head = Obj;
  else if (Obj != NullRef && Head != NullRef && linked(K))
    writeRefOp(*RT, *M, Sampled, K, Obj, 0, Head);
  Window->set(WindowBase + K % WindowSize, Obj);
  if ((K + 1) % P.PromoteEvery == 0 && Obj != NullRef) {
    uint32_t Slot = pick(draw(Seed, K, StreamPromoteSlot), 0,
                         uint32_t(Table->size() - 1));
    writeRefOp(*RT, *M, Sampled, K, Table->anchor(Slot), 0, Obj);
    SlotKey[Slot] = K;
  }

  // Old-generation mutation: rewire one anchor's lateral link.
  if (P.OldMutationRate > 0.0 &&
      chance(draw(Seed, K, StreamMutate), P.OldMutationRate)) {
    uint32_t Last = uint32_t(Table->size() - 1);
    uint32_t From = pick(draw(Seed, K, StreamMutateFrom), 0, Last);
    uint32_t To = pick(draw(Seed, K, StreamMutateTo), 0, Last);
    writeRefOp(*RT, *M, Sampled, K, Table->anchor(From), 1,
               Table->anchor(To));
    LateralTo[From] = To;
  }

  Checksum += computeWork(Shape, P.ComputePerAlloc);
  if (Sampled)
    Sampled->add(SpanKind::Op, K, Start, wallNanos(), SpanSampled);
}

Round BatchWorkload::round(bool Traced) {
  Round R;
  R.Traced = Traced;
  SpanBuffer *Spans = Traced ? MutatorSpans[0].get() : nullptr;

  MetricsSnapshot Before = RT->metrics();
  double Cpu0 = processCpuSeconds();
  double Self0 = threadCpuSeconds();
  R.BeginNanos = wallNanos();
  for (uint64_t I = 0; I < RoundOps; ++I)
    step(NextOp++, Spans);
  R.EndNanos = wallNanos();
  double Cpu = processCpuSeconds() - Cpu0;
  double Self = threadCpuSeconds() - Self0;

  R.Ops = RoundOps;
  R.BusySeconds = double(R.EndNanos - R.BeginNanos) * 1e-9;
  R.CpuSeconds = Cpu;
  R.GcCpuSeconds = Cpu - Self;
  R.Counters = RuntimeCounters::between(Before, RT->metrics());
  return R;
}

std::vector<Round> BatchWorkload::run(double Seconds, bool Trace) {
  std::vector<Round> Rounds;
  uint64_t Start = wallNanos();
  while (Rounds.size() < 2 || double(wallNanos() - Start) < Seconds * 1e9)
    Rounds.push_back(round(Trace && Rounds.size() % 2 == 1));
  return Rounds;
}

void BatchWorkload::checkEntry(Verdict &V, uint64_t Key,
                               ObjectRef Obj) const {
  const Heap &H = RT->heap();
  bool Populated = Key >> 56 == uint64_t(KeySpace::Populated);
  if (!Populated && failed(Key)) {
    V.check(Obj == NullRef, "slot of a failed operation", Key);
    return;
  }
  checkObject(V, H, Obj, P.RefSlots, dataBytes(Key),
              Populated ? TagPopulated : TagWork, stamp(Seed, Key), Key);
  if (Obj == NullRef)
    return;
  ObjectRef Link = loadRefSlot(H, Obj, 0);
  uint64_t HeadKey = Key - Key % LinkBatch;
  if (!Populated && linked(Key) && !failed(HeadKey))
    checkObject(V, H, Link, P.RefSlots, dataBytes(HeadKey), TagWork,
                stamp(Seed, HeadKey), HeadKey);
  else
    V.check(Link == NullRef, "unlinked slot", Key);
  for (uint32_t I = 1; I < P.RefSlots; ++I)
    V.check(loadRefSlot(H, Obj, I) == NullRef, "unused slot", Key);
}

Verdict BatchWorkload::verify(bool Corrupt) {
  Verdict V;
  Heap &H = RT->heap();
  if (Corrupt)
    for (size_t S = 0; S < SlotKey.size(); ++S)
      if (SlotKey[S] != ~0ull) {
        ObjectRef Obj = M->readRef(Table->anchor(S), 0);
        storeDataWord(H, Obj, 0, loadDataWord(H, Obj, 0) ^ 1);
        break;
      }

  // The young window holds, in slot s, the latest operation k = s mod W.
  for (uint64_t S = 0; S < WindowSize && S < NextOp; ++S) {
    uint64_t K = S + WindowSize * ((NextOp - 1 - S) / WindowSize);
    checkEntry(V, K, Window->get(WindowBase + S));
    if (S % 1024 == 0)
      M->cooperate();
  }
  for (size_t S = 0; S < SlotKey.size(); ++S) {
    ObjectRef Obj = M->readRef(Table->anchor(S), 0);
    if (SlotKey[S] == ~0ull)
      V.check(Obj == NullRef, "empty table slot", S);
    else
      checkEntry(V, SlotKey[S], Obj);
    if (S % 1024 == 0)
      M->cooperate();
  }
  checkAnchors(V, *Table, 0, &LateralTo);

  V.check(M->allocatedObjects() == SetupAllocs + NextOp - Failed.size(),
          "runtime allocation count vs operations", NextOp);
  V.check(Checksum == expectedChecksum(NextOp, StreamShape,
                                       P.ComputePerAlloc),
          "compute checksum", NextOp);
  return V;
}

} // namespace

std::unique_ptr<Workload> makeBatchWorkload(const std::string &Profile,
                                            uint64_t Seed, bool Tracing) {
  // Rounds of 0.5-1 s on a 4-vCPU KVM guest.
  uint64_t RoundOps = Profile == "db" ? 1'000'000 : 2'000'000;
  return std::make_unique<BatchWorkload>(profileByName(Profile), RoundOps,
                                         Seed, Tracing);
}

} // namespace gcperf
