//===- bench/scenario_matrix.cpp - The server scenario scoreboard -----------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// Not a paper figure — the evaluation the paper would run today.  The
// paper scored its collector on SPECjvm98 throughput; a collector serving
// live traffic is scored on *tail latency under sustained request load*.
// This driver runs the server scenario family (workload/Scenario.h) as a
// matrix — collector {stw, dlg, gen} x scenario {churn, cache, mixed,
// burst} x configuration — and reports, per cell, open-loop request
// latency quantiles (p50/p99/p999 from MetricsSnapshot::RequestNanos — no
// ad-hoc timing), completed-request throughput, and the share of elapsed
// time a collection was active.
//
// The headline the matrix exists to pin: in the churn scenario the
// stop-the-world collector's whole trace lands in the request tail (p99 in
// the milliseconds), while the on-the-fly generational collector keeps the
// tail at queueing-jitter scale.  tools/bench_diff.py gates both the
// throughput and the p99 of every cell against the committed baseline
// (bench/baselines/BENCH_scenario_matrix.json).
//
//   scenario_matrix [--scale=X --reps=N ...] [--scenario=NAME]
//                   [--collector=stw|dlg|gen] [--json=PATH]
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/BenchHarness.h"
#include "support/FaultInjector.h"
#include "workload/Scenario.h"

using namespace gengc;
using namespace gengc::bench;
using namespace gengc::workload;

namespace {

struct CollectorRow {
  const char *Label;
  CollectorChoice Choice;
};

const CollectorRow Collectors[] = {
    {"stw", CollectorChoice::StopTheWorld},
    {"dlg", CollectorChoice::NonGenerational},
    {"gen", CollectorChoice::Generational},
};

/// One configuration column of the matrix.  "base" runs under every
/// collector; the variants sweep generational-only knobs (they are
/// meaningless or identical for the other collectors).
struct ConfigRow {
  const char *Label;
  void (*Apply)(RuntimeConfig &);
};

const ConfigRow Configs[] = {
    {"base", [](RuntimeConfig &) {}},
    {"gct4", [](RuntimeConfig &C) { C.Collector.GcThreads = 4; }},
    {"young8",
     [](RuntimeConfig &C) { C.Collector.Trigger.YoungBytes = 8ull << 20; }},
};

/// One measured cell.
struct Cell {
  std::string Scenario;
  std::string Collector;
  std::string Config;
  uint64_t Requests = 0;
  double Rps = 0.0;
  double P50Usec = 0.0;
  double P99Usec = 0.0;
  double P999Usec = 0.0;
  double GcActivePercent = 0.0;
  size_t Cycles = 0;
  size_t Aborts = 0;
  size_t DegradedCycles = 0;
};

/// Arms the deterministic fault mix behind --faults: fixed seeds, so every
/// run of the column sees the same firing sequence.  Delay sites model a
/// noisy host; the bounded TraceAbort exercises the cycle-abort unwind and
/// the escalation ladder (DESIGN.md §19) under real request load.
void armBenchFaults() {
  FaultInjector::arm(FaultSite::HandshakeDelay,
                     FaultConfig{.Probability = 0.10,
                                 .DelayNanos = 500'000, .MaxHits = 64},
                     /*Seed=*/1);
  FaultInjector::arm(FaultSite::WorkerLaneStall,
                     FaultConfig{.Probability = 0.25,
                                 .DelayNanos = 200'000, .MaxHits = 64},
                     /*Seed=*/2);
  FaultInjector::arm(FaultSite::CardScanDelay,
                     FaultConfig{.Probability = 0.10,
                                 .DelayNanos = 100'000, .MaxHits = 64},
                     /*Seed=*/3);
  FaultInjector::arm(FaultSite::TraceAbort,
                     FaultConfig{.Probability = 0.5, .MaxHits = 2},
                     /*Seed=*/4);
}

Cell runCell(const ServerProfile &SP, const CollectorRow &Collector,
             const ConfigRow &Config, const BenchOptions &Options,
             bool Faults = false) {
  RuntimeConfig RC = configFor(Collector.Choice, Options);
  Config.Apply(RC);
  if (Faults) {
    // The faulted column runs the full escalation ladder so a wedged
    // handshake degrades the cell instead of hanging the benchmark.
    RC.Collector.Watchdog.Policy = WatchdogPolicy::Escalate;
    RC.Collector.Watchdog.DeadlineNanos = 2'000'000;
    RC.Collector.Watchdog.EscalateAfterFires = 2;
    armBenchFaults();
  }
  RunResult R = runScenario(SP, RC, Options.Run);
  if (Faults)
    FaultInjector::disarmAll();

  Cell C;
  C.Scenario = SP.Name;
  C.Collector = Collector.Label;
  C.Config = Faults ? "faults" : Config.Label;
  C.Requests = R.Requests;
  C.Rps = R.requestsPerSecond();
  C.P50Usec = R.Metrics.RequestNanos.quantileNanos(0.50) * 1e-3;
  C.P99Usec = R.Metrics.RequestNanos.quantileNanos(0.99) * 1e-3;
  C.P999Usec = R.Metrics.RequestNanos.quantileNanos(0.999) * 1e-3;
  C.GcActivePercent = R.percentGcActive();
  C.Cycles = R.Gc.Cycles.size();
  for (const CycleStats &Cycle : R.Gc.Cycles) {
    C.Aborts += Cycle.Aborted ? 1 : 0;
    C.DegradedCycles += Cycle.Degraded ? 1 : 0;
  }
  return C;
}

void writeJson(const std::string &Path, const std::vector<Cell> &Cells,
               double Scale) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  Out << "{\n  \"schema\": \"gengc-scenario-matrix\",\n";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4f", Scale);
  Out << "  \"scale\": " << Buf << ",\n  \"cells\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    Out << "    {\"scenario\": \"" << C.Scenario << "\", \"collector\": \""
        << C.Collector << "\", \"config\": \"" << C.Config << "\",\n";
    Out << "     \"requests\": " << C.Requests << ", ";
    std::snprintf(Buf, sizeof(Buf), "%.1f", C.Rps);
    Out << "\"requests_per_second\": " << Buf << ",\n     ";
    std::snprintf(Buf, sizeof(Buf), "%.2f", C.P50Usec);
    Out << "\"p50_usec\": " << Buf << ", ";
    std::snprintf(Buf, sizeof(Buf), "%.2f", C.P99Usec);
    Out << "\"p99_usec\": " << Buf << ", ";
    std::snprintf(Buf, sizeof(Buf), "%.2f", C.P999Usec);
    Out << "\"p999_usec\": " << Buf << ",\n     ";
    std::snprintf(Buf, sizeof(Buf), "%.2f", C.GcActivePercent);
    Out << "\"gc_active_percent\": " << Buf << ", \"cycles\": " << C.Cycles;
    // Only the opt-in faulted column carries resilience counters, so the
    // committed baseline schema is byte-identical without --faults.
    if (C.Config == "faults")
      Out << ", \"cycle_aborts\": " << C.Aborts
          << ", \"degraded_cycles\": " << C.DegradedCycles;
    Out << "}";
    Out << (I + 1 < Cells.size() ? ",\n" : "\n");
  }
  Out << "  ]\n}\n";
  std::printf("wrote %s (%zu cells)\n", Path.c_str(), Cells.size());
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: scenario_matrix [shared bench options] "
               "[--scenario=churn|cache|mixed|burst]\n"
               "                       [--collector=stw|dlg|gen] "
               "[--json=PATH] [--faults]\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = parseBenchOptions(
      Argc, Argv, {.Run = {.Scale = 1.0, .Reps = 1}}, /*AllowUnknown=*/true);

  std::string OnlyScenario, OnlyCollector, JsonPath;
  bool WithFaults = false;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--scenario=", 11) == 0)
      OnlyScenario = Arg + 11;
    else if (std::strncmp(Arg, "--collector=", 12) == 0)
      OnlyCollector = Arg + 12;
    else if (std::strncmp(Arg, "--json=", 7) == 0)
      JsonPath = Arg + 7;
    else if (std::strcmp(Arg, "--faults") == 0)
      WithFaults = true;
    else
      usage();
  }

  printFigureHeader("Scenario matrix",
                    "server workloads x collectors: latency SLO scoreboard");
  std::printf("open-loop request latency = completion - scheduled arrival "
              "(collector backlog\nshows up as queueing delay; no "
              "coordinated omission).  Quantiles come from\n"
              "MetricsSnapshot::RequestNanos.\n\n");

  std::vector<Cell> Cells;
  Table T({"scenario", "collector", "config", "req/s", "p50 us", "p99 us",
           "p999 us", "GC act %", "cycles"});
  for (const std::string &Name : serverScenarioNames()) {
    if (!OnlyScenario.empty() && Name != OnlyScenario)
      continue;
    ServerProfile SP = serverScenarioByName(Name);
    // All three collectors at the base config, then the generational-only
    // configuration sweep.  (The variant columns are not run under stw/dlg:
    // on this machine the full cross product triples the matrix runtime for
    // columns that only restate the base cell.)
    for (const CollectorRow &Collector : Collectors) {
      if (!OnlyCollector.empty() && OnlyCollector != Collector.Label)
        continue;
      for (const ConfigRow &Config : Configs) {
        bool GenOnly = std::strcmp(Config.Label, "base") != 0;
        if (GenOnly && Collector.Choice != CollectorChoice::Generational)
          continue;
        Cell C = runCell(SP, Collector, Config, Options);
        T.addRow({C.Scenario, C.Collector, C.Config,
                  Table::number(C.Rps, 0), Table::number(C.P50Usec, 1),
                  Table::number(C.P99Usec, 1), Table::number(C.P999Usec, 1),
                  Table::number(C.GcActivePercent, 1),
                  Table::count(C.Cycles)});
        Cells.push_back(std::move(C));
      }
      // The opt-in faulted column: the base configuration again, but under
      // the deterministic fault mix and the Escalate ladder.  Off by
      // default so the committed baseline never sees it.
      if (WithFaults) {
        Cell C = runCell(SP, Collector, Configs[0], Options, /*Faults=*/true);
        T.addRow({C.Scenario, C.Collector, C.Config,
                  Table::number(C.Rps, 0), Table::number(C.P50Usec, 1),
                  Table::number(C.P99Usec, 1), Table::number(C.P999Usec, 1),
                  Table::number(C.GcActivePercent, 1),
                  Table::count(C.Cycles)});
        std::printf("  [faults] %s/%s: %zu aborts, %zu degraded cycles\n",
                    C.Scenario.c_str(), C.Collector.c_str(), C.Aborts,
                    C.DegradedCycles);
        Cells.push_back(std::move(C));
      }
    }
    T.addSeparator();
  }
  T.print(stdout);
  printFigureFooter();

  if (!JsonPath.empty())
    writeJson(JsonPath, Cells, Options.Run.Scale);
  return 0;
}
