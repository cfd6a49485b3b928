//===- tests/obs/ApiTest.cpp -----------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// The embedder-facing API surface: the GenGc.h umbrella header is the only
// include this file uses, RuntimeConfig::validate() explains rejections in
// prose, and RootScope balances the shadow stack through every exit path.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/GenGc.h" // the umbrella must be self-sufficient

using namespace gengc;

namespace {

//===----------------------------------------------------------------------===//
// RuntimeConfig::validate
//===----------------------------------------------------------------------===//

TEST(ConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_EQ(RuntimeConfig().validate(), "");
}

TEST(ConfigValidateTest, AllShippedCollectorChoicesValidate) {
  for (CollectorChoice Choice :
       {CollectorChoice::Generational, CollectorChoice::NonGenerational,
        CollectorChoice::StopTheWorld}) {
    RuntimeConfig Config;
    Config.Choice = Choice;
    EXPECT_EQ(Config.validate(), "");
  }
}

TEST(ConfigValidateTest, HeapGeometryIsChecked) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 4096; // below one 64 KiB block
  EXPECT_NE(Config.validate().find("block 0 is reserved"), std::string::npos);

  Config = RuntimeConfig();
  Config.Heap.HeapBytes = 64 << 10; // one block, and block 0 is reserved
  EXPECT_NE(Config.validate().find("block 0 is reserved"), std::string::npos);

  Config = RuntimeConfig();
  Config.Heap.HeapBytes = (1ull << 20) + 4096; // not block aligned
  EXPECT_NE(Config.validate().find("multiple of the 64 KiB block size"),
            std::string::npos);
}

TEST(ConfigValidateTest, CardGeometryIsChecked) {
  RuntimeConfig Config;
  Config.Heap.CardBytes = 48; // not a power of two
  EXPECT_NE(Config.validate().find("power of two"), std::string::npos);

  Config = RuntimeConfig();
  Config.Heap.CardBytes = 8; // below the paper's evaluated range
  EXPECT_NE(Config.validate().find("[16, 4096]"), std::string::npos);
}

TEST(ConfigValidateTest, DisablingTriggersWithHugeValuesStaysLegal) {
  // The test-suite idiom: thresholds larger than the heap mean "never
  // trigger automatically".  validate() must not reject it.
  RuntimeConfig Config;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.FullFraction = 1.1;
  EXPECT_EQ(Config.validate(), "");

  Config.Collector.Trigger.YoungBytes = 0;
  EXPECT_NE(Config.validate().find("YoungBytes must be positive"),
            std::string::npos);

  Config = RuntimeConfig();
  Config.Collector.Trigger.FullFraction = 0.0;
  EXPECT_NE(Config.validate().find("FullFraction must be positive"),
            std::string::npos);
}

TEST(ConfigValidateTest, GcThreadBoundsAreChecked) {
  RuntimeConfig Config;
  Config.Collector.GcThreads = 0;
  EXPECT_NE(Config.validate().find("at least 1"), std::string::npos);

  Config.Collector.GcThreads = 300;
  EXPECT_NE(Config.validate().find("above 256"), std::string::npos);
}

TEST(ConfigValidateTest, GenerationalPolicyCombosAreChecked) {
  RuntimeConfig Config;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.Aging = true;
  Config.Collector.RememberedSets = true;
  EXPECT_NE(Config.validate().find("Aging with RememberedSets"),
            std::string::npos);

  // The same combination is fixed up (stripped), not rejected, for the
  // non-generational collectors — historical Runtime behavior.
  Config.Choice = CollectorChoice::NonGenerational;
  EXPECT_EQ(Config.validate(), "");
}

TEST(ConfigValidateTest, ObsRingSizeIsChecked) {
  RuntimeConfig Config;
  Config.Collector.Obs.RingEvents = 0;
  EXPECT_NE(Config.validate().find("RingEvents"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// RootScope
//===----------------------------------------------------------------------===//

RuntimeConfig scopeConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 4ull << 20;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 4ull << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

TEST(RootScopeTest, PopsExactlyWhatItPushed) {
  Runtime RT(scopeConfig());
  auto M = RT.attachMutator();
  M->pushRoot(NullRef); // a root the scope must not touch
  {
    RootScope Scope(*M);
    Scope.add(M->allocate(1, 8));
    Scope.add(M->allocate(1, 8));
    EXPECT_EQ(Scope.size(), 2u);
    EXPECT_EQ(M->numRoots(), 3u);
  }
  EXPECT_EQ(M->numRoots(), 1u);
  M->popRoots(1);
}

TEST(RootScopeTest, AddReturnsTheRefItRooted) {
  Runtime RT(scopeConfig());
  auto M = RT.attachMutator();
  RootScope Scope(*M);
  ObjectRef Node = Scope.add(M->allocate(2, 16));
  EXPECT_NE(Node, NullRef);
  EXPECT_EQ(M->root(M->numRoots() - 1), Node);
}

TEST(RootScopeTest, SlotsSurviveLaterPushes) {
  Runtime RT(scopeConfig());
  auto M = RT.attachMutator();
  RootScope Scope(*M);
  size_t Slot = Scope.addSlot(NullRef);
  for (int I = 0; I < 10; ++I) // grow the stack past the slot
    Scope.add(NullRef);

  ObjectRef Node = M->allocate(1, 8);
  Scope.set(Slot, Node);
  EXPECT_EQ(Scope.get(Slot), Node);
}

TEST(RootScopeTest, ScopesNestLikeTheCallStack) {
  Runtime RT(scopeConfig());
  auto M = RT.attachMutator();
  RootScope Outer(*M);
  Outer.add(NullRef);
  {
    RootScope Inner(*M);
    Inner.add(NullRef);
    Inner.add(NullRef);
    EXPECT_EQ(Inner.size(), 2u);
    EXPECT_EQ(Outer.size(), 3u); // outer sees everything above its base
  }
  EXPECT_EQ(Outer.size(), 1u);
  EXPECT_EQ(M->numRoots(), 1u);
}

TEST(RootScopeTest, RootsKeepObjectsAliveThroughACycle) {
  Runtime RT(scopeConfig());
  auto M = RT.attachMutator();
  RootScope Scope(*M);
  ObjectRef Keep = Scope.add(M->allocate(1, 32));
  storeDataWord(RT.heap(), Keep, 0, 0xFEEDFACEu);
  for (int I = 0; I < 100; ++I)
    M->allocate(0, 64); // garbage
  RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
  EXPECT_EQ(loadDataWord(RT.heap(), Keep, 0), 0xFEEDFACEu);
}

} // namespace
