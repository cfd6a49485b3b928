//===- gcperf/driver/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <sys/resource.h>

#include "workload/Runner.h"

using namespace gengc;

namespace gcperf {

RuntimeConfig benchConfig() {
  RuntimeConfig Config = workload::makeConfig(CollectorChoice::Generational);
  Config.Collector.GcThreads = 1;
  // A bounded ladder: an exhausted heap gives up after a few full
  // collections instead of the default thousand, so a failing run still
  // ends inside its time limit.
  Config.Oom.RetryAttempts = 16;
  Config.Oom.Handler = [](Mutator &, const OomInfo &) {
    return OomAction::GiveUp;
  };
  return Config;
}

static double cpuClockSeconds(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double processCpuSeconds() {
  return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double threadCpuSeconds() { return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double threadCpuSeconds(pthread_t Thread) {
  clockid_t Clock;
  if (pthread_getcpuclockid(Thread, &Clock) != 0)
    return 0.0;
  return cpuClockSeconds(Clock);
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  size_t Rank = size_t(std::ceil(Q * double(Values.size())));
  Rank = std::clamp<size_t>(Rank, 1, Values.size()) - 1;
  std::nth_element(Values.begin(), Values.begin() + Rank, Values.end());
  return Values[Rank];
}

void Verdict::check(bool Ok, const char *What, uint64_t Key) {
  ++Checked;
  if (Ok)
    return;
  if (Mismatches++ == 0) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s (key %llu)", What,
                  (unsigned long long)Key);
    FirstError = Buf;
  }
}

void Verdict::merge(const Verdict &Other) {
  Checked += Other.Checked;
  if (Mismatches == 0 && Other.Mismatches != 0)
    FirstError = Other.FirstError;
  Mismatches += Other.Mismatches;
}

void checkObject(Verdict &V, const Heap &H, ObjectRef Obj, uint32_t RefSlots,
                 uint32_t DataBytes, uint16_t Tag, uint32_t Stamp,
                 uint64_t Key) {
  if (Obj == NullRef) {
    V.check(false, "object missing", Key);
    return;
  }
  V.check(objectRefSlots(H, Obj) == RefSlots && objectTag(H, Obj) == Tag &&
              objectAllocBytes(H, Obj) == objectBytesFor(RefSlots, DataBytes),
          "object header", Key);
  V.check(loadDataWord(H, Obj, 0) == Stamp, "object stamp", Key);
}

void Failures::addRuntime(Runtime &RT) {
  MemoryWaits += RT.collector().memoryWaits();
  WatchdogFires += RT.collector().watchdogFires();
  MetricsSnapshot M = RT.metrics();
  AbortedCycles += M.CycleAborts;
  DegradedCycles += M.DegradedCycles;
}

static void appendNumber(std::string &Out, double Value) {
  if (!std::isfinite(Value)) {
    Out += "null";
    return;
  }
  char Buf[64];
  auto [End, Err] = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  Out.append(Buf, Err == std::errc() ? End : Buf);
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Line += ", ";
    Line += "\"" + Metrics[I].Name + "\": {\"value\": ";
    appendNumber(Line, Metrics[I].Value);
    Line += ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

} // namespace gcperf
