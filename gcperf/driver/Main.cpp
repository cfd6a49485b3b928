//===- gcperf/driver/Main.cpp - Benchmark driver entry point --------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// One run of one workload:
//
//   gcperf_driver --workload <batch-javac|batch-db|serve-churn> --seed <n>
//                 --seconds <s> --trace <0|1> [--corrupt-stamp]
//                 [--span-file <path>]
//
//  1. pre-warm: a throw-away instance runs the workload, so set-up is not
//     measured on a cold machine (GC phases run several times slower for
//     the first seconds after the machine has idled);
//  2. set-up, SetupReps times on fresh instances: the median is setup_s;
//  3. warm-up on the last instance, then the measured window of --seconds,
//     as rounds of fixed work (traced every second round with --trace 1);
//  4. the verifier walks everything the workload keeps reachable.
//
// Human-readable lines come first; the last line is the JSON result.  The
// exit code is 0 only when the verdict is correct.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <malloc.h>
#include <sys/utsname.h>

#include "Workload.h"

using namespace gengc;
using namespace gcperf;

namespace {

constexpr double PrewarmSeconds = 3.0;
constexpr double WarmSeconds = 2.0;
constexpr unsigned SetupReps = 9;

[[noreturn]] void usage(const char *Problem) {
  std::fprintf(stderr,
               "gcperf_driver: %s\n"
               "usage: gcperf_driver --workload <batch-javac|batch-db|"
               "serve-churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--corrupt-stamp] [--span-file <path>]\n",
               Problem);
  std::exit(2);
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return End != Text && *End == '\0';
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const char *Flag = Argv[I];
    if (std::strcmp(Flag, "--corrupt-stamp") == 0) {
      A.CorruptStamp = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage("missing value after a flag");
    const char *Value = Argv[++I];
    uint64_t N = 0;
    if (std::strcmp(Flag, "--workload") == 0) {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (std::strcmp(Flag, "--seed") == 0) {
      if (!parseUnsigned(Value, A.Seed))
        usage("--seed takes a whole number");
    } else if (std::strcmp(Flag, "--seconds") == 0) {
      if (!parseUnsigned(Value, N) || N < 1 || N > 600)
        usage("--seconds takes a whole number in [1, 600]");
      A.Seconds = double(N);
    } else if (std::strcmp(Flag, "--trace") == 0) {
      if (!parseUnsigned(Value, N) || N > 1)
        usage("--trace takes 0 or 1");
      A.Trace = N == 1;
    } else if (std::strcmp(Flag, "--span-file") == 0) {
      A.SpanFile = Value;
    } else {
      usage("unknown flag");
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return A;
}

void printFingerprint(const Args &A) {
  utsname Host{};
  uname(&Host);
  std::printf("# gcperf workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              A.Trace ? 1 : 0);
  std::printf("# machine: nproc=%u kernel=%s compiler=\"%s\" build=%s "
              "GENGC_PREFETCH=%d\n",
              std::thread::hardware_concurrency(), Host.release,
              GCPERF_COMPILER, GCPERF_BUILD_TYPE, GCPERF_PREFETCH);
}

/// Operations per second of busy time, per round.
std::vector<double> opRates(const std::vector<Round> &Rounds, bool Traced) {
  std::vector<double> Out;
  for (const Round &R : Rounds)
    if (R.Traced == Traced)
      Out.push_back(double(R.Ops) / R.BusySeconds);
  return Out;
}

std::vector<double> latencies(const std::vector<Round> &Rounds, bool Traced,
                              bool Late = false) {
  std::vector<double> Out;
  for (const Round &R : Rounds)
    if (R.Traced == Traced)
      for (float V : Late ? R.LateUs : R.LatencyUs)
        Out.push_back(V);
  return Out;
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

/// One line per phase: the median rate and CPU, then every round's rate
/// (in Mop/s), so a cold or drifting round shows.
void printPhase(const char *Name, const std::vector<Round> &Rounds) {
  std::vector<double> Cpu;
  for (const Round &R : Rounds)
    Cpu.push_back(R.CpuSeconds);
  std::printf("# %-8s %2zu rounds, %.4g op/s median (busy time), cpu %.4g s "
              "per round; Mop/s:",
              Name, Rounds.size(), median(opRates(Rounds, false)),
              median(Cpu));
  for (const Round &R : Rounds)
    std::printf(" %.3f%s", double(R.Ops) / R.BusySeconds * 1e-6,
                R.Traced ? "t" : "");
  std::printf("\n");
}

/// The end-to-end metrics.  Request latency exists only in the open loop:
/// a closed loop's per-call latency would have to be timed inside the
/// window, perturbing what is measured.
std::vector<Metric> endToEnd(const std::vector<SetupTimes> &Setups,
                             const std::vector<Round> &Window) {
  std::vector<double> Setup, Cpu;
  for (const SetupTimes &S : Setups)
    Setup.push_back(double(S.totalNanos()) * 1e-9);
  for (const Round &R : Window)
    Cpu.push_back(R.CpuSeconds);
  std::vector<Metric> Out = {
      {"setup_s", median(Setup), "s"},
      {"ops_per_s", median(opRates(Window, false)), "op/s"},
      {"cpu_s", median(Cpu), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  std::vector<double> Lat = latencies(Window, false);
  if (!Lat.empty()) {
    std::printf("# request latency: %zu samples, %zu beyond p99\n",
                Lat.size(),
                Lat.size() - size_t(std::ceil(0.99 * double(Lat.size()))));
    Out.push_back({"req_p50_us", quantile(Lat, 0.50), "us"});
    Out.push_back({"req_p99_us", quantile(Lat, 0.99), "us"});
  }
  return Out;
}

std::vector<Metric> perLayer(Workload &W, const std::vector<SetupTimes> &Setups,
                             const std::vector<Round> &Window,
                             const Failures &F, SpanBuffer &CycleSpans) {
  // The traced rounds: their time, work, counters and cycles.
  std::vector<std::pair<uint64_t, uint64_t>> Traced;
  double TracedNanos = 0.0, TracedOps = 0.0, GcCpu = 0.0;
  RuntimeCounters C;
  for (const Round &R : Window)
    if (R.Traced) {
      Traced.push_back({R.BeginNanos, R.EndNanos});
      TracedNanos += double(R.EndNanos - R.BeginNanos);
      TracedOps += double(R.Ops);
      GcCpu += R.GcCpuSeconds;
      C.add(R.Counters);
    }
  std::vector<CycleLog::Entry> Cycles = W.cycles().endedIn(Traced);
  appendCycleSpans(CycleSpans, Cycles);

  std::vector<const SpanBuffer *> Buffers = W.spanBuffers();
  Buffers.push_back(&CycleSpans);
  SpanSummary All = summarize(Buffers);
  SpanSummary Responded = summarize(Buffers, SpanResponded, SpanResponded);
  SpanSummary Idle = summarize(Buffers, SpanCollecting, 0);
  SpanSummary InCycle = summarize(Buffers, SpanCollecting, SpanCollecting);

  double Partial = 0, Full = 0, OldScanned = 0, CardBytes = 0, Dirty = 0,
         ObjTraced = 0, Freed = 0, PartialFreed = 0, PartialSurvived = 0;
  std::vector<double> LiveMb;
  for (const CycleLog::Entry &E : Cycles) {
    const CycleStats &S = E.Stats;
    (S.Kind == CycleKind::Partial ? Partial : Full) += 1;
    OldScanned += double(S.OldObjectsScanned);
    CardBytes += double(S.CardScanAreaBytes);
    Dirty += double(S.DirtyCardsAtStart);
    ObjTraced += double(S.ObjectsTraced);
    Freed += double(S.ObjectsFreed);
    if (S.Kind == CycleKind::Partial) {
      PartialFreed += double(S.ObjectsFreed);
      PartialSurvived += double(S.YoungSurvivors);
    }
    LiveMb.push_back(double(S.LiveBytesAfter) / double(1 << 20));
  }

  auto Ms = [&](SpanKind K) { return All[K].TotalNanos * 1e-6; };
  auto MeanNs = [](const KindSummary &K) {
    return ratio(K.TotalNanos, double(K.Count));
  };
  const KindSummary &Alloc = All[SpanKind::Alloc];
  const KindSummary &Cycle = All[SpanKind::Cycle];

  // Tracing overhead: the traced rounds' slowdown against the untraced
  // ones, in ops_per_s (closed loop) or request p50 (open loop).
  std::vector<double> LateUs = latencies(Window, false, true);
  bool OpenLoop = !LateUs.empty();
  double Overhead =
      OpenLoop ? ratio(quantile(latencies(Window, true), 0.5),
                       quantile(latencies(Window, false), 0.5)) - 1.0
               : 1.0 - ratio(median(opRates(Window, true)),
                             median(opRates(Window, false)));
  double RootSelf =
      All[SpanKind::Op].SelfNanos + All[SpanKind::Request].SelfNanos;
  double RootTotal =
      All[SpanKind::Op].SelfRootNanos + All[SpanKind::Request].SelfRootNanos;
  uint64_t Spans = 0, Dropped = 0;
  for (const SpanBuffer *B : Buffers) {
    Spans += B->spans().size();
    Dropped += B->dropped();
  }

  std::vector<double> Init, Build, Tenure;
  for (const SetupTimes &S : Setups) {
    Init.push_back(double(S.InitNanos) * 1e-6);
    Build.push_back(double(S.LiveBuildNanos) * 1e-6);
    Tenure.push_back(double(S.TenureNanos) * 1e-6);
  }
  const double Mb = double(1 << 20);
  Runtime &RT = W.runtime();
  return {
      {"core.init_ms", median(Init), "ms"},
      {"core.live_build_ms", median(Build), "ms"},
      {"core.tenure_gc_ms", median(Tenure), "ms"},
      {"runtime.allocs", double(Alloc.Count), "count"},
      {"runtime.alloc_ns_mean", MeanNs(Alloc), "ns"},
      {"runtime.alloc_ns_p99", quantile(Alloc.Nanos, 0.99), "ns"},
      {"runtime.stores", double(All[SpanKind::Store].Count), "count"},
      {"runtime.store_ns_idle", MeanNs(Idle[SpanKind::Store]), "ns"},
      {"runtime.store_ns_cycle", MeanNs(InCycle[SpanKind::Store]), "ns"},
      {"runtime.stalls", double(C.Stalls), "count"},
      {"runtime.stall_ms", double(C.StallNanos) * 1e-6, "ms"},
      {"runtime.stall_frac", ratio(double(C.StallNanos), TracedNanos),
       "ratio"},
      {"runtime.handshake_p50_us", C.Handshakes.quantileNanos(0.50) * 1e-3,
       "us"},
      {"runtime.handshake_p99_us", C.Handshakes.quantileNanos(0.99) * 1e-3,
       "us"},
      {"runtime.responses", double(Responded[SpanKind::Cooperate].Count),
       "count"},
      {"runtime.cooperate_ns_total", Responded[SpanKind::Cooperate].TotalNanos,
       "ns"},
      {"heap.refills", double(C.Refills), "count"},
      {"heap.refill_steals", double(C.RefillSteals), "count"},
      {"heap.shard_contentions", double(C.ShardContentions), "count"},
      {"heap.carve_fallbacks", double(C.CarveFallbacks), "count"},
      {"heap.live_mb", median(LiveMb), "MB"},
      {"heap.soft_limit_mb",
       double(RT.collector().trigger().softLimitBytes()) / Mb, "MB"},
      {"gc.cycles_partial", Partial, "count"},
      {"gc.cycles_full", Full, "count"},
      {"gc.active_frac", ratio(Cycle.TotalNanos, TracedNanos), "ratio"},
      {"gc.cpu_s", GcCpu, "s"},
      {"gc.clear_ms", Ms(SpanKind::Clear), "ms"},
      {"gc.mark_ms", Ms(SpanKind::Mark), "ms"},
      {"gc.card_scan_ms", Ms(SpanKind::CardScan), "ms"},
      {"gc.card_scan_mb", CardBytes / Mb, "MB"},
      {"gc.old_objects_scanned", OldScanned, "count"},
      {"gc.old_scanned_per_op", ratio(OldScanned, TracedOps), "count/op"},
      {"gc.dirty_cards", Dirty, "count"},
      {"gc.trace_ms", Ms(SpanKind::Trace), "ms"},
      {"gc.term_scan_ms", Ms(SpanKind::TermScan), "ms"},
      {"gc.term_scan_frac",
       ratio(All[SpanKind::TermScan].TotalNanos,
             All[SpanKind::Trace].TotalNanos),
       "ratio"},
      {"gc.objects_traced", ObjTraced, "count"},
      {"gc.sweep_ms", Ms(SpanKind::Sweep), "ms"},
      {"gc.objects_freed", Freed, "count"},
      {"gc.partial_freed_frac",
       ratio(PartialFreed, PartialFreed + PartialSurvived), "ratio"},
      {"gc.cycle_ms_p50", quantile(Cycle.Nanos, 0.5) * 1e-6, "ms"},
      {"gc.cycle_ms_max", quantile(Cycle.Nanos, 1.0) * 1e-6, "ms"},
      {"gc.unphased_ms", Cycle.SelfNanos * 1e-6, "ms"},
      {"gc.aborts", double(F.AbortedCycles), "count"},
      {"gc.degraded_cycles", double(F.DegradedCycles), "count"},
      {"gc.memory_waits", double(F.MemoryWaits), "count"},
      {"gc.watchdog_fires", double(F.WatchdogFires), "count"},
      {"obs.trace_overhead_frac", Overhead, "ratio"},
      {"obs.spans", double(Spans), "count"},
      {"obs.spans_dropped", double(Dropped), "count"},
      {"bench.self_frac", ratio(RootSelf, RootTotal), "ratio"},
      {"bench.traced_s", TracedNanos * 1e-9, "s"},
      {"bench.traced_ops", TracedOps, "count"},
      {"bench.late_us_p99", quantile(LateUs, 0.99), "us"},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (!makeWorkload(A.Workload, A.Seed, false))
    usage("unknown workload (known: batch-javac, batch-db, serve-churn)");
  // Pin glibc's mmap threshold: every set-up repetition then maps (and
  // first-touches) fresh memory for the arena and side tables, as a fresh
  // process would, instead of reusing pages the previous one freed.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  uint64_t Origin = wallNanos();
  printFingerprint(A);

  {
    std::unique_ptr<Workload> Prewarm = makeWorkload(A.Workload, A.Seed, false);
    Prewarm->setUp();
    printPhase("pre-warm", Prewarm->run(PrewarmSeconds, false));
  }

  std::vector<SetupTimes> Setups;
  std::unique_ptr<Workload> W;
  for (unsigned I = 0; I < SetupReps; ++I) {
    W.reset();
    W = makeWorkload(A.Workload, A.Seed, A.Trace);
    Setups.push_back(W->setUp());
  }
  std::printf("# setup    %u reps (init + live build + tenure gc, ms):",
              SetupReps);
  for (const SetupTimes &S : Setups)
    std::printf(" %.1f+%.1f+%.1f", double(S.InitNanos) * 1e-6,
                double(S.LiveBuildNanos) * 1e-6, double(S.TenureNanos) * 1e-6);
  std::printf("\n");

  printPhase("warm-up", W->run(WarmSeconds, false));
  std::vector<Round> Window = W->run(A.Seconds, A.Trace);
  printPhase("window", Window);

  Verdict V = W->verify(A.CorruptStamp);
  Failures F = W->failures();
  F.Mismatches = V.Mismatches;
  F.addRuntime(W->runtime());
  bool Correct = V.Mismatches == 0;
  std::printf("# verdict: %s, %llu items checked, %llu mismatches%s%s\n",
              Correct ? "correct" : "INCORRECT",
              (unsigned long long)V.Checked, (unsigned long long)V.Mismatches,
              Correct ? "" : "; first: ", V.FirstError.c_str());
  std::printf("# failures: give-ups %llu, mismatches %llu, unserved %llu, "
              "memory waits %llu, watchdog fires %llu, aborted cycles %llu, "
              "degraded cycles %llu\n",
              (unsigned long long)F.GiveUps, (unsigned long long)F.Mismatches,
              (unsigned long long)F.Unserved,
              (unsigned long long)F.MemoryWaits,
              (unsigned long long)F.WatchdogFires,
              (unsigned long long)F.AbortedCycles,
              (unsigned long long)F.DegradedCycles);

  SpanBuffer CycleSpans(A.Trace ? size_t(1) << 20 : 0);
  std::vector<Metric> Metrics =
      A.Trace ? perLayer(*W, Setups, Window, F, CycleSpans)
              : endToEnd(Setups, Window);
  for (const Metric &M : Metrics)
    std::printf("# %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (A.Trace && !A.SpanFile.empty()) {
    std::vector<const SpanBuffer *> Buffers = W->spanBuffers();
    Buffers.push_back(&CycleSpans);
    if (!writeSpans(A.SpanFile, Buffers, Origin))
      std::fprintf(stderr, "gcperf_driver: cannot write %s\n",
                   A.SpanFile.c_str());
  }

  printResult(Correct, W->attempted(), F.total(), Metrics);
  return Correct ? 0 : 1;
}
