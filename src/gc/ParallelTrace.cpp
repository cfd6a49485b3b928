//===- gc/ParallelTrace.cpp - Work-stealing parallel trace ------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/ParallelTrace.h"

#include <algorithm>
#include <thread>

#include "support/Timer.h"

using namespace gengc;

ParallelTracer::ParallelTracer(Heap &H, CollectorState &S, GcWorkerPool &Pool)
    : H(H), State(S), Pool(Pool) {
  for (unsigned Lane = 0; Lane < Pool.lanes(); ++Lane)
    Engines.push_back(std::make_unique<Tracer>(H, S, SegPool));
}

void ParallelTracer::setAgingThreshold(uint8_t OldestAge) {
  for (auto &Engine : Engines)
    Engine->setAgingThreshold(OldestAge);
}

void ParallelTracer::setPrefetchDepth(unsigned Depth) {
  for (auto &Engine : Engines)
    Engine->setPrefetchDepth(Depth);
}

void ParallelTracer::setObs(ObsRegistry *Registry) {
  Obs = Registry;
  for (unsigned Lane = 0; Lane < Pool.lanes(); ++Lane)
    Engines[Lane]->setObsRing(Registry ? Registry->laneRing(Lane) : nullptr);
}

ParallelTracer::Result ParallelTracer::trace(Color BlackColor,
                                             GrayCounters &Counters) {
  unsigned Lanes = Pool.lanes();
  Result R;
  R.WorkerNanos.assign(Lanes, 0);
  uint64_t AcquiresAtStart = SegPool.acquires();

  PageTouchTracker &Pages = H.pages();
  const AtomicByteTable &Colors = H.colors();
  std::vector<ObjectRef> Pending;
  State.Grays.drainTo(Pending);

  for (;;) {
    if (!Pending.empty()) {
      // The pending grays go onto lane 0's stack; its siblings get work the
      // way they do mid-trace, by stealing the segments lane 0 offloads.
      // Every lane then work-steals until global quiescence.
      for (ObjectRef Ref : Pending)
        Engines[0]->push(Ref);
      Pending.clear();
      TraceWorkList Shared;
      std::atomic<unsigned> NumIdle{0};
      std::vector<Tracer::Result> LaneResults(Lanes);
      Pool.run([&](unsigned Lane) {
        uint64_t Start = nowNanos();
        Engines[Lane]->drainShared(Shared, NumIdle, Lanes, BlackColor,
                                   Counters, LaneResults[Lane]);
        uint64_t Duration = nowNanos() - Start;
        R.WorkerNanos[Lane] += Duration;
        if (EventRing *Ring = Obs ? Obs->laneRing(Lane) : nullptr)
          Ring->emit(ObsEventKind::TraceSpan, Start, Duration,
                     LaneResults[Lane].ObjectsTraced);
      });
      for (const Tracer::Result &LR : LaneResults) {
        R.ObjectsTraced += LR.ObjectsTraced;
        R.BytesTraced += LR.BytesTraced;
        R.Offloads += LR.Offloads;
      }
      R.Steals += Shared.steals();
    }

    // Termination, step 1: wait out shades whose buffer enqueue is still
    // in flight, then re-drain anything they published.
    while (State.InFlightShades.load(std::memory_order_acquire) != 0)
      std::this_thread::yield();
    if (State.Grays.drainTo(Pending))
      continue;

    // Termination, step 2: one verification scan of the color side-table,
    // sharded across all pool lanes over the allocated block ranges.  Gray
    // can only rest on object-start granules inside allocated blocks — a
    // block carved after the range snapshot holds only freshly allocated
    // (allocation-colored) objects, and a block freed during the scan held
    // only unmarked free cells — so skipping never-carved space finds
    // every gray a full-table scan would (DESIGN.md §17).  Grays it finds
    // (rare) go back through the drain above.
    ++R.Passes;
    uint64_t ScanStart = nowNanos();
    std::vector<std::pair<size_t, size_t>> Chunks; // color-entry ranges
    // Four blocks of granules per claimed chunk: coarse enough that the
    // shared-cursor traffic is negligible, fine enough to balance lanes.
    constexpr size_t ScanChunkEntries = 16 * 1024;
    H.forEachAllocatedBlockRange([&](uint64_t ByteBegin, uint64_t ByteEnd) {
      size_t Begin = size_t(ByteBegin >> GranuleShift);
      size_t End = size_t(ByteEnd >> GranuleShift);
      Pages.touchRange(Region::ColorTable, Begin, End - Begin);
      for (size_t C = Begin; C < End; C += ScanChunkEntries)
        Chunks.emplace_back(C, std::min(C + ScanChunkEntries, End));
    });
    std::vector<std::vector<ObjectRef>> LaneFound(Lanes);
    parallelChunks(
        Pool, 0, Chunks.size(), 1, [&](unsigned Lane, size_t B, size_t E) {
          for (size_t C = B; C != E; ++C)
            Colors.forEachEntryEqualInRange(
                Chunks[C].first, Chunks[C].second, uint8_t(Color::Gray),
                [&](size_t Index) {
                  LaneFound[Lane].push_back(ObjectRef(Index << GranuleShift));
                });
        });
    for (const std::vector<ObjectRef> &Found : LaneFound)
      Pending.insert(Pending.end(), Found.begin(), Found.end());
    R.TermScanNanos += nowNanos() - ScanStart;
    if (Pending.empty()) {
      R.SegmentsAcquired = SegPool.acquires() - AcquiresAtStart;
      return R;
    }
  }
}
