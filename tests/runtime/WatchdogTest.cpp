//===- tests/runtime/WatchdogTest.cpp --------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// The handshake/stall watchdog: a mutator that stops cooperating past the
// configured deadline produces a stall report (with per-mutator
// diagnostics) through the configured policy, whole-cycle deadlines fire
// the same machinery, and the Abort policy dies with a pinned message.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/Runtime.h"

using namespace gengc;

namespace {

RuntimeConfig manualConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 8 << 20;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
  Config.Collector.Trigger.FullFraction = 100.0;
  return Config;
}

TEST(Watchdog, StatusNames) {
  EXPECT_STREQ(handshakeStatusName(HandshakeStatus::Async), "async");
  EXPECT_STREQ(handshakeStatusName(HandshakeStatus::Sync1), "sync1");
  EXPECT_STREQ(handshakeStatusName(HandshakeStatus::Sync2), "sync2");
}

TEST(Watchdog, ValidateRejectsCallbackWithoutOnStall) {
  RuntimeConfig Config = manualConfig();
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Callback;
  EXPECT_NE(Config.validate().find("OnStall"), std::string::npos);
  Config.Collector.Watchdog.OnStall = [](const StallReport &) {};
  EXPECT_TRUE(Config.validate().empty());
}

TEST(Watchdog, CallbackFiresOnUnresponsiveMutator) {
  RuntimeConfig Config = manualConfig();
  std::atomic<unsigned> Fires{0};
  std::atomic<uint64_t> ReportedMutators{0};
  std::atomic<bool> SawHandshakeWhat{false};
  Config.Collector.Watchdog.DeadlineNanos = 2'000'000; // 2 ms
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Callback;
  Config.Collector.Watchdog.OnStall = [&](const StallReport &Report) {
    ++Fires;
    ReportedMutators = Report.Mutators.size();
    if (std::string(Report.What) == "handshake" &&
        Report.WaitedNanos >= 2'000'000)
      SawHandshakeWhat = true;
  };
  Runtime RT(Config);

  std::atomic<bool> Ready{false}, CycleDone{false};
  std::thread Slacker([&] {
    auto M = RT.attachMutator();
    M->allocate(1, 24);
    Ready = true;
    // Miss the handshake deadline until the watchdog reports (not for a
    // fixed duration: sanitizer builds slow the collector enough that a
    // wall-clock wedge can end before the wait even starts), capped so a
    // silent watchdog fails the test instead of deadlocking it.  Then
    // cooperate until the cycle completes.
    auto Cap = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (Fires.load() == 0 && std::chrono::steady_clock::now() < Cap)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    while (!CycleDone.load()) {
      M->cooperate();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    M->cooperate();
  });

  while (!Ready.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  RT.collector().collectSync(CycleRequest::Full);
  CycleDone = true;
  Slacker.join();

  EXPECT_GE(Fires.load(), 1u);
  EXPECT_GE(RT.collector().watchdogFires(), 1u);
  EXPECT_GE(ReportedMutators.load(), 1u) << "the stalled mutator is listed";
  EXPECT_TRUE(SawHandshakeWhat.load());
}

TEST(Watchdog, StopTheWorldWaitReports) {
  // The world-stop wait reports a thread that stops cooperating under
  // every policy, not only under Escalate.
  RuntimeConfig Config = manualConfig();
  Config.Choice = CollectorChoice::StopTheWorld;
  std::atomic<unsigned> StopReports{0};
  Config.Collector.Watchdog.DeadlineNanos = 2'000'000; // 2 ms
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Callback;
  Config.Collector.Watchdog.OnStall = [&](const StallReport &Report) {
    if (std::string(Report.What) == "stop-the-world")
      ++StopReports;
  };
  Runtime RT(Config);

  std::atomic<bool> Ready{false}, CycleDone{false};
  std::thread Slacker([&] {
    auto M = RT.attachMutator();
    M->allocate(1, 24);
    Ready = true;
    // Wedged until the stop is reported, capped so a silent wait fails
    // the test instead of hanging it; then park and run on.
    auto Cap = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (StopReports.load() == 0 && std::chrono::steady_clock::now() < Cap)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    while (!CycleDone.load()) {
      M->cooperate();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  while (!Ready.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  RT.collector().collectSync(CycleRequest::Full);
  CycleDone = true;
  Slacker.join();

  EXPECT_GE(StopReports.load(), 1u)
      << "a wedged thread hung the world stop without a report";
}

TEST(Watchdog, CycleDeadlineFiresUnderLogPolicy) {
  RuntimeConfig Config = manualConfig();
  // Any real cycle takes longer than 1 ns; the report goes to stderr.
  Config.Collector.Watchdog.CycleDeadlineNanos = 1;
  Runtime RT(Config);
  auto M = RT.attachMutator();
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_GE(RT.collector().watchdogFires(), 1u);
}

TEST(Watchdog, FiresAreCountedPerExpiry) {
  RuntimeConfig Config = manualConfig();
  Config.Collector.Watchdog.CycleDeadlineNanos = 1;
  Runtime RT(Config);
  auto M = RT.attachMutator();
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_GE(RT.collector().watchdogFires(), 2u);
}

TEST(WatchdogDeathTest, AbortPolicyDies) {
  EXPECT_DEATH(
      {
        RuntimeConfig Config = manualConfig();
        Config.Collector.Watchdog.CycleDeadlineNanos = 1;
        Config.Collector.Watchdog.Policy = WatchdogPolicy::Abort;
        Runtime RT(Config);
        RT.collector().collectSync(CycleRequest::Full);
      },
      "watchdog deadline expired");
}

} // namespace
