//===- gc/WorkerPool.h - Parallel GC worker pool ----------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pool of persistent worker threads that parallelizes the collector's own
/// phases (card scanning, tracing, sweeping) without touching any
/// mutator-facing invariant: handshakes, the write barrier and the color
/// toggle still run exactly as the paper specifies, on the collector thread.
///
/// The pool exposes "lanes": lane 0 is always the calling (collector)
/// thread, lanes 1..N-1 are pool threads.  With a single lane no thread is
/// ever spawned and run() degenerates to a plain call.  The phases run the
/// same code at every lane count; determinism means a workload reports the
/// same collection counts whatever the lane count (DeterminismTest).
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_WORKERPOOL_H
#define GENGC_GC_WORKERPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/Assert.h"

namespace gengc {

/// Persistent pool executing one job at a time across all lanes.
class GcWorkerPool {
public:
  /// Creates a pool with \p Lanes total execution lanes (clamped to >= 1).
  /// Lanes - 1 threads are spawned; they park on a condition variable
  /// between jobs, so an idle pool costs nothing on collector hot paths.
  explicit GcWorkerPool(unsigned Lanes);
  ~GcWorkerPool();

  GcWorkerPool(const GcWorkerPool &) = delete;
  GcWorkerPool &operator=(const GcWorkerPool &) = delete;

  /// Total number of lanes, including the caller's lane 0.
  unsigned lanes() const { return NumLanes; }

  /// Number of spawned pool threads (lanes() - 1).
  unsigned threadCount() const { return unsigned(Threads.size()); }

  /// Runs \p Job(Lane) on every lane and blocks until all lanes return.
  /// The caller executes lane 0 itself.  If any lane throws, the first
  /// exception is rethrown here after every lane has finished; the pool
  /// remains usable.  Not reentrant: one job at a time.
  void run(const std::function<void(unsigned)> &Job);

private:
  void threadLoop(unsigned Lane);
  void finishLane(std::exception_ptr Error);

  unsigned NumLanes;
  std::vector<std::thread> Threads;

  std::mutex Mutex;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  uint64_t Epoch = 0;
  const std::function<void(unsigned)> *Job = nullptr;
  unsigned Outstanding = 0;
  std::exception_ptr FirstError;
  bool Stopping = false;
};

/// Dynamically-scheduled parallel for over [Begin, End): lanes claim
/// contiguous chunks of \p Chunk items through a shared cursor and invoke
/// \p Body(Lane, ChunkBegin, ChunkEnd).  With one lane the chunks are
/// claimed in ascending order by the caller, so the traversal order is
/// identical to a sequential loop — the parallel phases lean on this for
/// their GcThreads = 1 determinism guarantee.
template <typename BodyFn>
void parallelChunks(GcWorkerPool &Pool, size_t Begin, size_t End, size_t Chunk,
                    BodyFn &&Body) {
  GENGC_ASSERT(Chunk > 0, "parallelChunks needs a positive chunk size");
  if (Begin >= End)
    return;
  std::atomic<size_t> Cursor{Begin};
  Pool.run([&](unsigned Lane) {
    for (;;) {
      size_t ChunkBegin = Cursor.fetch_add(Chunk, std::memory_order_relaxed);
      if (ChunkBegin >= End)
        return;
      Body(Lane, ChunkBegin, std::min(ChunkBegin + Chunk, End));
    }
  });
}

} // namespace gengc

#endif // GENGC_GC_WORKERPOOL_H
