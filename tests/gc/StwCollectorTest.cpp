//===- tests/gc/StwCollectorTest.cpp ---------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// The stop-the-world comparator: correctness (liveness/completeness) and
// the defining behavioral contrast with the on-the-fly collectors — the
// mutators actually stop.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/Runtime.h"

using namespace gengc;

namespace {

RuntimeConfig stwConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 8 << 20;
  Config.Choice = CollectorChoice::StopTheWorld;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

TEST(StwCollector, ReachableObjectsSurvive) {
  Runtime RT(stwConfig());
  auto M = RT.attachMutator();
  ObjectRef Head = NullRef;
  size_t Slot = M->pushRoot(NullRef);
  for (int I = 0; I < 1000; ++I) {
    ObjectRef Node = M->allocate(1, 16);
    M->writeRef(Node, 0, Head);
    Head = Node;
    M->setRoot(Slot, Head);
  }
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  unsigned Count = 0;
  for (ObjectRef Node = Head; Node != NullRef; Node = M->readRef(Node, 0)) {
    ASSERT_NE(RT.heap().loadColor(Node), Color::Blue);
    ++Count;
  }
  EXPECT_EQ(Count, 1000u);
  M->popRoots(1);
}

TEST(StwCollector, GarbageIsReclaimedInOneCycle) {
  Runtime RT(stwConfig());
  auto M = RT.attachMutator();
  std::vector<ObjectRef> Garbage;
  for (int I = 0; I < 2000; ++I)
    Garbage.push_back(M->allocate(1, 16));
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  // STW has no floating garbage: everything dead dies immediately.
  for (ObjectRef Ref : Garbage)
    EXPECT_EQ(RT.heap().loadColor(Ref), Color::Blue);
}

TEST(StwCollector, MutatorsRecordRealPauses) {
  Runtime RT(stwConfig());
  auto M = RT.attachMutator();
  // Build a live set so the stopped trace takes measurable time.
  size_t Slot = M->pushRoot(NullRef);
  for (int I = 0; I < 50000; ++I) {
    ObjectRef Node = M->allocate(2, 24);
    M->writeRef(Node, 0, M->root(Slot));
    M->setRoot(Slot, Node);
  }
  ASSERT_EQ(M->pauseStats().Count, 0u);
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  Mutator::PauseStats Pauses = M->pauseStats();
  EXPECT_GE(Pauses.Count, 1u) << "the mutator must have been stopped";
  EXPECT_GT(Pauses.MaxNanos, 0u);
  M->popRoots(1);
}

TEST(StwCollector, OnTheFlyCollectorsNeverStopMutators) {
  for (CollectorChoice Choice : {CollectorChoice::Generational,
                                 CollectorChoice::NonGenerational}) {
    RuntimeConfig Config = stwConfig();
    Config.Choice = Choice;
    Runtime RT(Config);
    auto M = RT.attachMutator();
    size_t Slot = M->pushRoot(NullRef);
    for (int I = 0; I < 50000; ++I) {
      ObjectRef Node = M->allocate(2, 24);
      M->writeRef(Node, 0, M->root(Slot));
      M->setRoot(Slot, Node);
    }
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
    // No stop-the-world parks; with manual triggering and a huge young
    // budget there is no allocation throttling either.
    EXPECT_EQ(M->pauseStats().Count, 0u)
        << "on-the-fly collector stopped a mutator";
    M->popRoots(1);
  }
}

TEST(StwCollector, MultithreadedStopAndResume) {
  RuntimeConfig Config = stwConfig();
  Config.Collector.Trigger.InitialSoftBytes = 1 << 20; // autonomous fulls
  Config.Collector.PollMicros = 50;
  Runtime RT(Config);
  constexpr unsigned NumThreads = 3;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&RT, T] {
      auto M = RT.attachMutator();
      size_t Slot = M->pushRoot(NullRef);
      for (int I = 0; I < 100000; ++I) {
        ObjectRef Node = M->allocate(1, 16 + (T * 8) % 48);
        if (I % 3 == 0)
          M->setRoot(Slot, Node);
        M->cooperate();
        if (M->root(Slot) != NullRef) {
          ASSERT_NE(RT.heap().loadColor(M->root(Slot)), Color::Blue);
        }
      }
      M->popRoots(M->numRoots());
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_GT(RT.collector().completedCycles(), 0u);
}

TEST(StwCollector, ChainBuiltWhileTheWorldStopsSurvives) {
  // A thread runs on until its next cooperate(), so it can still allocate
  // after StopWorld is raised.  Here it builds N2 -> N1 -> Old in that
  // window and roots only N2: the trace must reach Old through two objects
  // that did not exist when the pause began.  Anything allocated in the
  // window must carry a color the trace treats as untraced.
  Runtime RT(stwConfig());
  CollectorState &State = RT.collector().state();
  std::atomic<bool> Ready{false};
  std::atomic<bool> Collected{false};
  std::thread Worker([&] {
    auto M = RT.attachMutator();
    size_t Slot = M->pushRoot(M->allocate(0, 16));
    Ready.store(true, std::memory_order_release);
    while (!State.StopWorld.load(std::memory_order_acquire))
      std::this_thread::yield();
    ObjectRef Old = M->root(Slot);
    ObjectRef N1 = M->allocate(1, 16);
    M->writeRef(N1, 0, Old);
    ObjectRef N2 = M->allocate(1, 16);
    M->writeRef(N2, 0, N1);
    M->setRoot(Slot, N2);
    M->cooperate(); // parks until the world resumes
    while (!Collected.load(std::memory_order_acquire))
      std::this_thread::yield();
    EXPECT_NE(RT.heap().loadColor(N2), Color::Blue);
    EXPECT_NE(RT.heap().loadColor(N1), Color::Blue);
    EXPECT_NE(RT.heap().loadColor(Old), Color::Blue)
        << "an object reachable only through objects allocated while the "
           "world stopped was freed";
    M->popRoots(1);
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();
  RT.collector().collectSync(CycleRequest::Full);
  Collected.store(true, std::memory_order_release);
  Worker.join();
}

TEST(StwCollector, BlockedThreadsAreHandledByCollector) {
  Runtime RT(stwConfig());
  auto Blockee = RT.attachMutator();
  ObjectRef Kept = Blockee->allocate(1, 16);
  Blockee->pushRoot(Kept);
  std::atomic<bool> Release{false};
  std::thread Parked([&] {
    BlockedScope Scope(*Blockee);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });

  {
    auto M = RT.attachMutator();
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
    // The blocked thread's root survived: the collector shaded it.
    EXPECT_NE(RT.heap().loadColor(Kept), Color::Blue);
  }
  Release.store(true, std::memory_order_release);
  Parked.join();
  Blockee->popRoots(1);
}

} // namespace
