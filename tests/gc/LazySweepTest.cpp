//===- tests/gc/LazySweepTest.cpp ------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// SweepPolicy::Lazy: the publish/claim protocol (every published block is
// claimed exactly once, however many threads race), the epoch invariant
// across a color toggle (the verifier must catch a stale publish), residue
// completion on an idle heap (the collector's drip alone must finish
// reclamation), mutator-side inline sweeping, and a many-mutator churn with
// the heap verifier armed at every phase boundary.
//
// SweepPolicy is deliberately reached through the GenGc.h umbrella — the
// policy is embedder-facing API and must be visible there.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "core/GenGc.h"
#include "gc/HeapVerifier.h"
#include "gc/LazySweep.h"

using namespace gengc;

namespace {

/// Manual-cycle lazy runtime: triggers disabled, idle drip suppressed (the
/// collector polls once a second, so tests control exactly who sweeps).
RuntimeConfig lazyManualConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 32ull << 20;
  Config.Choice = CollectorChoice::NonGenerational;
  Config.Collector.Sweep = SweepPolicy::Lazy;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 1ull << 40;
  Config.Collector.Trigger.FullFraction = 100.0;
  Config.Collector.PollMicros = 1000 * 1000;
  return Config;
}

/// Allocates \p Count objects per size mix and drops them all on the floor.
void makeGarbage(Mutator &M, int Count) {
  for (int I = 0; I < Count; ++I) {
    M.allocate(0, 8);    // 16-byte class
    M.allocate(2, 24);   // 48-byte class
    M.allocate(0, 200);  // larger class
    if (I % 64 == 0)
      M.cooperate();
  }
}

TEST(LazySweep, ConfigValidationAndNames) {
  EXPECT_STREQ(sweepPolicyName(SweepPolicy::Eager), "eager");
  EXPECT_STREQ(sweepPolicyName(SweepPolicy::Lazy), "lazy");

  RuntimeConfig Config = lazyManualConfig();
  EXPECT_TRUE(Config.validate().empty()) << Config.validate();
  Config.Collector.Sweep = SweepPolicy(7);
  EXPECT_FALSE(Config.validate().empty());
}

TEST(LazySweep, PublishedBlocksClaimedExactlyOnce) {
  Runtime RT(lazyManualConfig());
  Heap &H = RT.heap();
  {
    auto M = RT.attachMutator();
    makeGarbage(*M, 4000);
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  }
  RT.collector().stop();

  uint64_t Published = H.needsSweepBlockCount();
  ASSERT_GT(Published, 0u);

  // Race the claim stacks: every published block must be handed out to
  // exactly one thread.
  constexpr unsigned NumThreads = 8;
  std::vector<std::vector<uint32_t>> Claimed(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (;;) {
        uint32_t Block = 0;
        for (unsigned ClassIdx = 0; ClassIdx < NumSizeClasses && !Block;
             ++ClassIdx)
          Block = H.claimNeedsSweepBlock(ClassIdx);
        if (!Block)
          return;
        Claimed[T].push_back(Block);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  std::set<uint32_t> Unique;
  uint64_t Total = 0;
  for (const std::vector<uint32_t> &PerThread : Claimed)
    for (uint32_t Block : PerThread) {
      ++Total;
      EXPECT_TRUE(Unique.insert(Block).second)
          << "block " << Block << " claimed twice";
    }
  EXPECT_EQ(Total, Published);
  EXPECT_EQ(H.needsSweepBlockCount(), 0u);

  // Finish the protocol by hand so the heap is coherent again, then let the
  // verifier judge the result.
  Sweeper Engine(H, RT.state());
  for (uint32_t Block : Unique) {
    unsigned ClassIdx = H.block(Block).SizeClassIdx;
    Sweeper::Result R;
    std::vector<Heap::CellChain> Freed;
    Engine.sweepClaimedBlock(SweepMode::NonGenerational, 0, Block, R, Freed);
    H.markBlockSwept(Block);
    std::vector<Heap::CellChain> Stash = H.takePendingStash(Block);
    for (const Heap::CellChain &Chain : Freed)
      H.pushFreeChain(ClassIdx, Chain);
    for (const Heap::CellChain &Chain : Stash)
      H.repushFreeChain(ClassIdx, Chain);
    H.finishBlockSweep(/*MutatorContext=*/false);
  }
  EXPECT_EQ(H.sweepingBlockCount(), 0u);

  HeapVerifier V(H, RT.state());
  HeapVerifier::Report R = V.run(VerifyScope::Concurrent);
  EXPECT_TRUE(R.clean()) << (R.Violations.empty() ? "" : R.Violations[0]);
}

TEST(LazySweep, VerifierCatchesEpochMismatchAcrossToggle) {
  Runtime RT(lazyManualConfig());
  Heap &H = RT.heap();
  {
    auto M = RT.attachMutator();
    makeGarbage(*M, 2000);
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  }
  RT.collector().stop();
  ASSERT_GT(H.needsSweepBlockCount(), 0u);

  HeapVerifier V(H, RT.state());
  // Published under the current epoch: clean.
  HeapVerifier::Report Before = V.run(VerifyScope::Concurrent);
  EXPECT_TRUE(Before.clean())
      << (Before.Violations.empty() ? "" : Before.Violations[0]);

  // A toggle the protocol forbids (the collector always drains residue
  // first) must make every still-published block a stale-epoch violation.
  RT.state().switchAllocationClearColors();
  HeapVerifier::Report After = V.run(VerifyScope::Concurrent);
  EXPECT_FALSE(After.clean());
  bool FoundEpoch = false;
  for (const std::string &Violation : After.Violations)
    if (Violation.find("needs-sweep under epoch") != std::string::npos)
      FoundEpoch = true;
  EXPECT_TRUE(FoundEpoch);

  // Toggle back so the runtime tears down under the published epoch.
  RT.state().switchAllocationClearColors();
}

TEST(LazySweep, ResidueCompletesOnIdleHeap) {
  RuntimeConfig Config = lazyManualConfig();
  Config.Collector.PollMicros = 200; // normal drip cadence
  Runtime RT(Config);
  {
    auto M = RT.attachMutator();
    makeGarbage(*M, 3000);
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  }

  // Nobody allocates; the collector's idle drip alone must retire every
  // published block.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (RT.heap().needsSweepBlockCount() != 0 ||
         RT.heap().sweepingBlockCount() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "idle drip never drained the residue";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  MetricsSnapshot M = RT.metrics();
  EXPECT_GT(M.LazyBlocksPublished, 0u);
  EXPECT_GT(M.LazyBlocksResidueSwept, 0u);
}

TEST(LazySweep, MutatorRefillSweepsPublishedBlocksInline) {
  Runtime RT(lazyManualConfig()); // drip suppressed: mutators must sweep
  Heap &H = RT.heap();
  auto M = RT.attachMutator();
  makeGarbage(*M, 4000);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  ASSERT_GT(H.needsSweepBlockCount(), 0u);

  // Publish drained the central lists, so the next refills find their
  // class list empty and must claim published blocks through the lazy hook.
  uint64_t Before = H.lazyBlocksMutatorSwept();
  makeGarbage(*M, 4000);
  EXPECT_GT(H.lazyBlocksMutatorSwept(), Before);
  EXPECT_GT(RT.metrics().LazyBlocksMutatorSwept, 0u);
  M.reset();
}

TEST(LazySweep, ManyMutatorChurnUnderVerifier) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 64ull << 20;
  Config.Choice = CollectorChoice::NonGenerational;
  Config.Collector.Sweep = SweepPolicy::Lazy;
  Config.Collector.VerifyHeap = true;
  Config.Collector.GcThreads = 2;
  // Trigger-driven cycles: enough churn to publish, claim and drain many
  // times over.
  Config.Collector.Trigger.YoungBytes = 2ull << 20;
  Config.Collector.Trigger.InitialSoftBytes = 8ull << 20;
  Runtime RT(Config);

  constexpr unsigned NumThreads = 64;
  constexpr int AllocsPerThread = 6000;
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      auto M = RT.attachMutator();
      // A small per-thread survivor window plus garbage: both claim paths
      // (mutator refill and collector residue) stay busy.
      ObjectRef Window[16] = {};
      for (int I = 0; I < AllocsPerThread; ++I) {
        ObjectRef Ref = M->allocate(1, 8 + (I % 3) * 32);
        if (Ref == NullRef) {
          Failed.store(true);
          break;
        }
        Window[I % 16] = Ref;
        if (I % 8 == 0 && Window[(I + 7) % 16] != NullRef)
          M->writeRef(Ref, 0, Window[(I + 7) % 16]);
        if (unsigned(I % 64) == T % 64)
          M->cooperate();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(Failed.load());

  // One synchronous full cycle so a publish/claim/drain round trips with
  // the verifier armed, then drain-by-hand check: stopping the collector
  // leaves no block mid-sweep.
  {
    auto M = RT.attachMutator();
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  }
  RT.collector().stop();
  EXPECT_EQ(RT.heap().sweepingBlockCount(), 0u);
  MetricsSnapshot Snapshot = RT.metrics();
  EXPECT_GT(Snapshot.LazyBlocksPublished, 0u);
}

} // namespace
