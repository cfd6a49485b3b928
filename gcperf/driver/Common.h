//===- gcperf/driver/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the runtime configuration every run
/// uses, seed-derived stamps, the compute kernel, clocks, exact quantiles,
/// the correctness tally and the result line.
///
//===----------------------------------------------------------------------===//

#ifndef GCPERF_DRIVER_COMMON_H
#define GCPERF_DRIVER_COMMON_H

#include <chrono>
#include <pthread.h>
#include <cstdint>
#include <string>
#include <vector>

#include "core/Runtime.h"

namespace gcperf {

/// Command line of one run.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured window.
  double Seconds = 10.0;
  /// Alternate untraced and traced rounds and report per-layer metrics.
  bool Trace = false;
  /// Self-test: corrupt one stamp before verification (verdict must fail).
  bool CorruptStamp = false;
  /// Where a traced run writes its spans (empty: nowhere).
  std::string SpanFile;
};

/// The configuration every workload runs under: the default generational
/// collector, the paper's 32 MB heap and 16-byte cards, one GC lane, and an
/// out-of-memory handler that gives up, so heap exhaustion surfaces as a
/// failed allocation (NullRef) instead of aborting the run.
gengc::RuntimeConfig benchConfig();

/// SplitMix64 finalizer: the counter-based generator behind every
/// seed-derived decision, so each object's shape and stamp are a pure
/// function of (seed, key) that the verifier can recompute.
inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Hash of (Seed, Key, Stream): independent draws for one key.
inline uint64_t draw(uint64_t Seed, uint64_t Key, uint64_t Stream) {
  return mix64(mix64(Seed ^ (Stream * 0xD6E8FEB86659FD93ull)) + Key);
}

/// Uniform value in [Lo, Hi] from the bits of \p Bits.
inline uint32_t pick(uint64_t Bits, uint32_t Lo, uint32_t Hi) {
  return Lo + uint32_t((unsigned __int128)(Bits) * (Hi - Lo + 1) >> 64);
}

/// True with probability \p P, from the bits of \p Bits.
inline bool chance(uint64_t Bits, double P) {
  return double(Bits >> 11) * 0x1.0p-53 < P;
}

/// The stamp written into the first data word of the object created for
/// \p Key.  Key spaces of different object kinds are kept apart by the
/// caller (see KeySpace in Workload.h).
inline uint32_t stamp(uint64_t Seed, uint64_t Key) {
  return uint32_t(draw(Seed, Key, 0x57A3));
}

/// The application compute kernel (same xorshift rounds as the workload
/// programs in src/workload).
inline uint64_t computeWork(uint64_t Seed, uint32_t Iterations) {
  uint64_t X = Seed | 1;
  for (uint32_t I = 0; I < Iterations; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

/// Monotonic wall clock in nanoseconds: the steady clock gengc::nowNanos
/// reads, inlined because traced rounds call it around single barriers.
inline uint64_t wallNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}
/// CPU time of the whole process / the calling thread / another live
/// thread, in seconds.
double processCpuSeconds();
double threadCpuSeconds();
double threadCpuSeconds(pthread_t Thread);
/// Peak resident set of the process, in MB.
double peakRssMb();

/// Exact \p Q quantile (nearest rank) of \p Values; 0 when empty.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Outcome of the post-window walk over everything the driver keeps
/// reachable.
struct Verdict {
  uint64_t Checked = 0;
  uint64_t Mismatches = 0;
  std::string FirstError;

  /// Counts one checked item; records a mismatch when \p Ok is false.
  void check(bool Ok, const char *What, uint64_t Key);
  void merge(const Verdict &Other);
};

/// Checks the header and stamp of \p Obj, expected to be the object created
/// for \p Key with \p RefSlots and \p DataBytes.
void checkObject(Verdict &V, const gengc::Heap &H, gengc::ObjectRef Obj,
                 uint32_t RefSlots, uint32_t DataBytes, uint16_t Tag,
                 uint32_t Stamp, uint64_t Key);

/// One named metric of the result line.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Counts that make an operation "failed" besides verification.
struct Failures {
  uint64_t GiveUps = 0;
  uint64_t Mismatches = 0;
  uint64_t Unserved = 0;
  uint64_t MemoryWaits = 0;
  uint64_t WatchdogFires = 0;
  uint64_t AbortedCycles = 0;
  uint64_t DegradedCycles = 0;

  uint64_t total() const {
    return GiveUps + Mismatches + Unserved + MemoryWaits + WatchdogFires +
           AbortedCycles + DegradedCycles;
  }
  /// Adds the runtime's own failure counters.
  void addRuntime(gengc::Runtime &RT);
};

/// Prints the final result line: {"correct", "attempted", "failed",
/// "metrics"}.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics);

} // namespace gcperf

#endif // GCPERF_DRIVER_COMMON_H
