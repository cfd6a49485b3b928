//===- tests/integration/ChaosTest.cpp -------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// The seeded chaos campaign (DESIGN.md §19): every seed derives — through a
// SplitMix64 stream — a different subset of the seven fault sites, armed
// with seed-dependent probabilities and hit caps, and runs a deterministic
// two-mutator list workload under WatchdogPolicy::Escalate with the heap
// verifier on at every phase boundary.  The pass criterion is the strong
// one: whatever combination of swallowed handshakes, aborted traces,
// aborted sweeps, failed allocations and stalled lanes a seed produces,
// the surviving object graph must checksum identically to the fault-free
// run.  GENGC_CHAOS_SEEDS overrides the seed count (tier-1 keeps it
// bounded; sanitizer builds run fewer by default).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/Runtime.h"
#include "runtime/ObjectModel.h"
#include "support/FaultInjector.h"

using namespace gengc;

namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr unsigned DefaultSeeds = 6;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr unsigned DefaultSeeds = 6;
#else
constexpr unsigned DefaultSeeds = 32;
#endif
#else
constexpr unsigned DefaultSeeds = 32;
#endif

unsigned chaosSeeds() {
  if (const char *Env = std::getenv("GENGC_CHAOS_SEEDS")) {
    long N = std::strtol(Env, nullptr, 10);
    if (N > 0)
      return unsigned(N);
  }
  return DefaultSeeds;
}

/// SplitMix64: one independent deterministic stream per campaign seed.
struct SplitMix {
  uint64_t X;
  explicit SplitMix(uint64_t Seed) : X(Seed) {}
  uint64_t next() {
    X += 0x9e3779b97f4a7c15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  double unit() { return double(next() >> 11) / double(1ull << 53); }
};

RuntimeConfig chaosConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 8 << 20;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
  Config.Collector.Trigger.FullFraction = 100.0;
  Config.Collector.VerifyHeap = true;
  Config.Collector.Watchdog.DeadlineNanos = 1'000'000; // 1 ms
  Config.Collector.Watchdog.EscalateAfterFires = 2;
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Escalate;
  Config.Collector.Watchdog.OnStall = [](const StallReport &) {};
  return Config;
}

/// One mutator's share of the workload: NODES list nodes tagged 1..NODES,
/// all kept reachable through the root stack, plus one unrooted garbage
/// node per kept node so every cycle has something real to reclaim.
/// Returns the (fault-independent) fold of (position, tag) over the list.
constexpr int NodesPerMutator = 600;

void mutatorLoop(Runtime &RT, std::atomic<bool> &Done,
                 std::atomic<unsigned> &ReadyCount,
                 std::atomic<uint64_t> &ChecksumOut) {
  auto M = RT.attachMutator();
  size_t Slot = M->pushRoot(NullRef);
  int Built = 0;
  bool Counted = false;
  while (!Done.load(std::memory_order_acquire)) {
    if (Built < NodesPerMutator) {
      ObjectRef Node = M->allocate(1, 16, uint16_t(++Built));
      M->writeRef(Node, 0, M->root(Slot));
      M->setRoot(Slot, Node);
      M->allocate(2, 32, 0xdead); // garbage for the sweeps
    } else if (!Counted) {
      Counted = true;
      ReadyCount.fetch_add(1, std::memory_order_acq_rel);
    }
    M->cooperate();
    if (Built >= NodesPerMutator)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  uint64_t Sum = 0;
  uint64_t Position = 0;
  for (ObjectRef Node = M->root(Slot); Node != NullRef;
       Node = M->readRef(Node, 0))
    Sum += (++Position) * 1000003u + objectTag(RT.heap(), Node);
  ChecksumOut.fetch_add(Sum, std::memory_order_acq_rel);
  M->popRoots();
}

/// Runs the whole workload — two builder mutators, three Partial + three
/// Full synchronous collections — and returns the summed checksum, and
/// through \p CycleAborts (when set) the number of aborted cycles.  The
/// caller arms (or does not arm) the fault table first.
uint64_t runCampaignWorkload(const RuntimeConfig &Config,
                             uint64_t *CycleAborts = nullptr) {
  Runtime RT(Config);
  std::atomic<bool> Done{false};
  std::atomic<unsigned> Ready{0};
  std::atomic<uint64_t> Checksum{0};
  std::thread T1([&] { mutatorLoop(RT, Done, Ready, Checksum); });
  std::thread T2([&] { mutatorLoop(RT, Done, Ready, Checksum); });
  while (Ready.load() < 2)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  for (int I = 0; I < 3; ++I) {
    RT.collector().collectSync(CycleRequest::Partial);
    RT.collector().collectSync(CycleRequest::Full);
  }
  // Disarm before the final certification cycles so the recovery path —
  // not an armed fault — has the last word, then let the ladder settle
  // back to a clean on-the-fly cycle.
  FaultInjector::disarmAll();
  for (int I = 0; I < 50; ++I) {
    RT.collector().collectSync(CycleRequest::Full);
    GcRunStats Stats = RT.collector().statsSnapshot();
    const CycleStats &Last = Stats.Cycles.back();
    if (!Last.Aborted && !Last.Degraded && Last.ForcedMutators == 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Done = true;
  T1.join();
  T2.join();
  EXPECT_FALSE(RT.collector().statsSnapshot().Cycles.back().Degraded)
      << "the campaign must end recovered, not degraded";
  if (CycleAborts)
    *CycleAborts = RT.metrics().CycleAborts;
  return Checksum.load();
}

/// Arms a seed-derived subset of every known fault site.  Sites whose
/// firing is a pure delay get probabilities and bounded delays; sites that
/// change control flow (AllocFail, ThreadStall, TraceAbort, SweepAbort)
/// get hit caps so every seed terminates.
void armFaultTable(uint64_t Seed) {
  SplitMix Rng(Seed);
  uint32_t Pick = uint32_t(Rng.next());
  // At least one site is always armed: fold the all-zero draw away.
  if ((Pick & 0x7f) == 0)
    Pick |= 1u << (Seed % NumFaultSites);

  if (Pick & (1u << unsigned(FaultSite::AllocFail)))
    FaultInjector::arm(FaultSite::AllocFail,
                       FaultConfig{.Probability = 0.05 + 0.2 * Rng.unit(),
                                   .MaxHits = 20 + Rng.next() % 60},
                       Rng.next());
  if (Pick & (1u << unsigned(FaultSite::HandshakeDelay)))
    FaultInjector::arm(FaultSite::HandshakeDelay,
                       FaultConfig{.Probability = 0.05 + 0.15 * Rng.unit(),
                                   .DelayNanos = 200'000 + Rng.next() % 2'000'000,
                                   .MaxHits = 40},
                       Rng.next());
  if (Pick & (1u << unsigned(FaultSite::WorkerLaneStall)))
    FaultInjector::arm(FaultSite::WorkerLaneStall,
                       FaultConfig{.Probability = 0.3,
                                   .DelayNanos = 100'000 + Rng.next() % 500'000,
                                   .MaxHits = 40},
                       Rng.next());
  if (Pick & (1u << unsigned(FaultSite::CardScanDelay)))
    FaultInjector::arm(FaultSite::CardScanDelay,
                       FaultConfig{.Probability = 0.2,
                                   .DelayNanos = 50'000 + Rng.next() % 200'000,
                                   .MaxHits = 40},
                       Rng.next());
  if (Pick & (1u << unsigned(FaultSite::ThreadStall)))
    FaultInjector::arm(FaultSite::ThreadStall,
                       FaultConfig{.Probability = 0.2 + 0.6 * Rng.unit(),
                                   .MaxHits = 4 + Rng.next() % 12},
                       Rng.next());
  if (Pick & (1u << unsigned(FaultSite::TraceAbort)))
    FaultInjector::arm(FaultSite::TraceAbort,
                       FaultConfig{.Probability = 0.25 + 0.25 * Rng.unit(),
                                   .MaxHits = 1 + Rng.next() % 3},
                       Rng.next());
  if (Pick & (1u << unsigned(FaultSite::SweepAbort)))
    FaultInjector::arm(FaultSite::SweepAbort,
                       FaultConfig{.Probability = 0.25 + 0.25 * Rng.unit(),
                                   .MaxHits = 1 + Rng.next() % 3},
                       Rng.next());
}

struct ChaosTest : ::testing::Test {
  void TearDown() override { FaultInjector::disarmAll(); }
};

TEST_F(ChaosTest, SeededCampaignKeepsChecksums) {
  RuntimeConfig Config = chaosConfig();

  // The structure the mutators keep is fault-independent, so one
  // fault-free run fixes the expected checksum for every seed.
  FaultInjector::disarmAll();
  uint64_t FaultFree = runCampaignWorkload(Config);
  ASSERT_NE(FaultFree, 0u);

  unsigned Seeds = chaosSeeds();
  for (unsigned I = 0; I < Seeds; ++I) {
    uint64_t Seed = 0xc4a05ull + I;
    SCOPED_TRACE(::testing::Message() << "campaign seed " << Seed << " ("
                                      << (I + 1) << "/" << Seeds << ")");
    armFaultTable(Seed);
    uint64_t Got = runCampaignWorkload(Config);
    ASSERT_EQ(Got, FaultFree)
        << "seed " << Seed
        << " lost or clobbered live objects (re-run with "
           "GENGC_CHAOS_SEEDS=1 and this seed index to bisect)";
  }
}

TEST_F(ChaosTest, AlternateConfigurationsSurviveOneSeed) {
  // One campaign seed against the aging and remembered-set variants, so the
  // abort unwind's age bumping and the Section 3.1 barrier see chaos too,
  // and against the DLG baseline (the base abortRecolor) and the STW
  // comparator, whose stopped-world cycles must never abort.  Each
  // on-the-fly variant's seed aborts at least one cycle, so the unwind runs.
  constexpr uint64_t Seeds[] = {0xa61e, 0xa622, 0xa620, 0xa621};
  for (int Variant = 0; Variant < 4; ++Variant) {
    RuntimeConfig Config = chaosConfig();
    switch (Variant) {
    case 0:
      Config.Collector.Aging = true;
      Config.Collector.OldestAge = 2;
      break;
    case 1:
      Config.Collector.RememberedSets = true;
      break;
    case 2:
      Config.Choice = CollectorChoice::NonGenerational;
      break;
    case 3:
      Config.Choice = CollectorChoice::StopTheWorld;
      break;
    }
    SCOPED_TRACE(::testing::Message() << "variant " << Variant);
    FaultInjector::disarmAll();
    uint64_t FaultFree = runCampaignWorkload(Config);
    armFaultTable(Seeds[Variant]);
    uint64_t Aborts = 0;
    uint64_t Got = runCampaignWorkload(Config, &Aborts);
    ASSERT_EQ(Got, FaultFree);
    if (Config.Choice == CollectorChoice::StopTheWorld)
      EXPECT_EQ(Aborts, 0u) << "a stopped-world cycle has no unwind";
    else
      EXPECT_GT(Aborts, 0u) << "the seed no longer aborts a cycle";
  }
}

} // namespace
