//===- bench/micro_alloc_scale.cpp - Allocation-path scalability ------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// Allocation-churn throughput as mutator count grows 1 -> 256, with
// batched refill (RefillBatchMax=8) against one chain per refill
// (RefillBatchMax=1).  Every thread hammers allocate() with a small-object
// size mix while the collector runs on its normal triggers, so the
// measurement covers the whole allocation path: thread cache -> spare
// chains -> the class's central list -> carve a free block, plus sweep
// returning chains to the lists.
//
// ctest -L bench-smoke runs the 1- and 8-thread points as a crash/regression
// canary; the bench_alloc_scale_json target writes the full curve to
// BENCH_alloc_scale.json, and tools/bench_diff.py compares that file against
// bench/baselines/BENCH_alloc_scale.json (>15% throughput regression at the
// 1- and 8-thread points fails).
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <mutex>

#include "core/Runtime.h"

using namespace gengc;

namespace {

RuntimeConfig scaleConfig(uint32_t RefillBatchMax) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 64ull << 20;
  Config.Heap.RefillBatchMax = RefillBatchMax;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.GcThreads = 2;
  return Config;
}

/// One Runtime shared by every benchmark thread, with explicit create /
/// destroy rendezvous (benchmark threads enter and leave the function
/// unsynchronized, so thread 0 must not delete the runtime while a sibling
/// still holds a mutator).
struct SharedRuntime {
  std::mutex M;
  std::condition_variable Cv;
  Runtime *RT = nullptr;
  int Exited = 0;

  Runtime &acquire(benchmark::State &State, const RuntimeConfig &Config) {
    std::unique_lock Locked(M);
    if (State.thread_index() == 0) {
      RT = new Runtime(Config);
      Exited = 0;
      Cv.notify_all();
    } else {
      Cv.wait(Locked, [&] { return RT != nullptr; });
    }
    return *RT;
  }

  void release(benchmark::State &State) {
    std::unique_lock Locked(M);
    ++Exited;
    Cv.notify_all();
    if (State.thread_index() == 0) {
      Cv.wait(Locked, [&] { return Exited == State.threads(); });
      delete RT;
      RT = nullptr;
    }
  }
};

SharedRuntime Shared;

void allocChurn(benchmark::State &State, uint32_t RefillBatchMax) {
  Runtime &RT = Shared.acquire(State, scaleConfig(RefillBatchMax));
  {
    auto M = RT.attachMutator();
    uint64_t I = 0;
    constexpr uint64_t BatchIters = 1024;
    // The benchmark harness rendezvous-barriers all threads inside the
    // first and the final KeepRunningBatch call.  A thread parked there
    // cannot cooperate with handshakes, which would wedge the collector
    // (and any sibling waiting on memory), so the mutator is declared
    // Blocked across every harness call — the collector responds on its
    // behalf — and live only while actually allocating.
    M->enterBlocked();
    while (State.KeepRunningBatch(BatchIters)) {
      M->exitBlocked();
      for (uint64_t J = 0; J < BatchIters; ++J) {
        // Three size classes so refills hit several central lists; objects
        // are dropped immediately — the young trigger recycles them.
        uint32_t Bytes = I % 3 == 0 ? 16 : (I % 3 == 1 ? 48 : 256);
        ObjectRef Ref = M->allocate(1, Bytes);
        benchmark::DoNotOptimize(Ref);
        if (++I % 64 == 0)
          M->cooperate();
      }
      M->enterBlocked();
    }
    M->exitBlocked();
  }
  State.SetItemsProcessed(State.iterations());
  Shared.release(State);
}

BENCHMARK_CAPTURE(allocChurn, batched, /*RefillBatchMax=*/8u)
    ->ThreadRange(1, 256)
    ->UseRealTime();
BENCHMARK_CAPTURE(allocChurn, unbatched, /*RefillBatchMax=*/1u)
    ->ThreadRange(1, 256)
    ->UseRealTime();

} // namespace
