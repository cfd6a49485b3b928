//===- tests/integration/PropertyTest.cpp -----------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// Property-based testing: random object graphs are built and mutated; at
// collector-idle safe points we compute the reachable set ourselves and
// assert the two fundamental GC properties:
//
//   SOUNDNESS    — every reachable object is unreclaimed (never Blue);
//   COMPLETENESS — every unreachable object is reclaimed within two
//                  further full collections (one cycle of float is legal
//                  for an on-the-fly collector).
//
// Runs across both collectors, both promotion policies and several card
// sizes, seeds parameterized.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/GenGc.h"
#include "support/Random.h"

using namespace gengc;

namespace {

struct PropertyParam {
  CollectorChoice Choice;
  bool Aging;
  uint8_t OldestAge;
  uint32_t CardBytes;
  uint64_t Seed;
};

std::string caseName(const PropertyParam &P) {
  std::string Name =
      P.Choice == CollectorChoice::Generational ? "Gen" : "Dlg";
  if (P.Aging)
    Name += "Aging" + std::to_string(P.OldestAge);
  Name += "Card" + std::to_string(P.CardBytes);
  Name += "Seed" + std::to_string(P.Seed);
  return Name;
}

// gtest writes a parameter without a PrintTo into the test name as its raw
// bytes, padding included, which change from build to build.
void PrintTo(const PropertyParam &P, std::ostream *OS) { *OS << caseName(P); }

class GcPropertyTest : public ::testing::TestWithParam<PropertyParam> {
protected:
  RuntimeConfig makeConfig() const {
    const PropertyParam &P = GetParam();
    RuntimeConfig Config;
    Config.Heap.HeapBytes = 8 << 20;
    Config.Heap.CardBytes = P.CardBytes;
    Config.Choice = P.Choice;
    Config.Collector.Aging = P.Aging;
    Config.Collector.OldestAge = P.OldestAge;
    Config.Collector.Trigger.YoungBytes = 1ull << 40; // manual cycles
    Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
    Config.Collector.Trigger.FullFraction = 1.1;
    return Config;
  }
};

/// Computes the set of objects reachable from the mutator's roots and the
/// global roots by walking ref slots directly.
std::set<ObjectRef> reachableSet(Runtime &RT, Mutator &M) {
  std::set<ObjectRef> Seen;
  std::vector<ObjectRef> Work;
  auto Push = [&](ObjectRef Ref) {
    if (Ref != NullRef && Seen.insert(Ref).second)
      Work.push_back(Ref);
  };
  for (size_t I = 0; I < M.numRoots(); ++I)
    Push(M.root(I));
  for (size_t I = 0; I < RT.globalRoots().size(); ++I)
    Push(RT.globalRoots().get(I));
  while (!Work.empty()) {
    ObjectRef Ref = Work.back();
    Work.pop_back();
    // A reachable-but-reclaimed object would make the header read below
    // garbage (freed cells hold free-list links); report it readably
    // instead of crashing the walk.
    if (RT.heap().loadColor(Ref) == Color::Blue) {
      ADD_FAILURE() << "dangling reference to reclaimed object " << Ref;
      continue;
    }
    for (uint32_t I = 0, E = objectRefSlots(RT.heap(), Ref); I < E; ++I)
      Push(loadRefSlot(RT.heap(), Ref, I));
  }
  return Seen;
}

TEST_P(GcPropertyTest, SoundnessAndCompletenessOnRandomGraphs) {
  Runtime RT(makeConfig());
  auto M = RT.attachMutator();
  Rng Rand(GetParam().Seed);

  constexpr unsigned Roots = 24;
  RootScope Scope(*M);
  for (unsigned I = 0; I < Roots; ++I)
    Scope.add(NullRef);

  // Every object ever allocated, so completeness can be checked.
  std::vector<ObjectRef> Everything;

  for (int Round = 0; Round < 6; ++Round) {
    // Mutate the graph randomly.
    for (int Op = 0; Op < 400; ++Op) {
      switch (Rand.nextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3: { // allocate, rooted
        ObjectRef Obj =
            M->allocate(uint32_t(Rand.nextInRange(0, 4)),
                        uint32_t(Rand.nextInRange(0, 64)));
        Everything.push_back(Obj);
        M->setRoot(size_t(Rand.nextBelow(Roots)), Obj);
        break;
      }
      case 4:
      case 5: { // link two random live-ish objects
        if (Everything.empty())
          break;
        ObjectRef A =
            Everything[Rand.nextBelow(Everything.size())];
        ObjectRef B =
            Everything[Rand.nextBelow(Everything.size())];
        if (RT.heap().loadColor(A) != Color::Blue &&
            RT.heap().loadColor(B) != Color::Blue &&
            objectRefSlots(RT.heap(), A) > 0)
          M->writeRef(A, uint32_t(Rand.nextBelow(
                             objectRefSlots(RT.heap(), A))),
                      B);
        break;
      }
      case 6: { // sever a link
        if (Everything.empty())
          break;
        ObjectRef A =
            Everything[Rand.nextBelow(Everything.size())];
        if (RT.heap().loadColor(A) != Color::Blue &&
            objectRefSlots(RT.heap(), A) > 0)
          M->writeRef(A, uint32_t(Rand.nextBelow(
                             objectRefSlots(RT.heap(), A))),
                      NullRef);
        break;
      }
      case 7: { // clear a root
        M->setRoot(size_t(Rand.nextBelow(Roots)), NullRef);
        break;
      }
      case 8: { // global root traffic
        if (RT.globalRoots().size() < 8)
          RT.globalRoots().addRoot(NullRef);
        else if (!Everything.empty()) {
          ObjectRef A =
              Everything[Rand.nextBelow(Everything.size())];
          if (RT.heap().loadColor(A) != Color::Blue)
            RT.globalRoots().set(
                size_t(Rand.nextBelow(RT.globalRoots().size())), A);
        }
        break;
      }
      case 9: { // collection of a random kind
        RT.collector().collectSyncCooperating(
            Rand.nextBool(0.3) ? CycleRequest::Full
                               : CycleRequest::Partial,
            *M);
        break;
      }
      }
    }

    // Safe point: collector idle (collectSync… returned and no triggers
    // are armed).  SOUNDNESS.
    std::set<ObjectRef> Reachable = reachableSet(RT, *M);
    for (ObjectRef Ref : Reachable)
      ASSERT_NE(RT.heap().loadColor(Ref), Color::Blue)
          << "reachable object reclaimed in round " << Round;

    // COMPLETENESS after two full collections.
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
    RT.collector().collectSyncCooperating(CycleRequest::Full, *M);
    Reachable = reachableSet(RT, *M);
    for (ObjectRef Ref : Everything) {
      if (Reachable.count(Ref))
        continue;
      EXPECT_EQ(RT.heap().loadColor(Ref), Color::Blue)
          << "unreachable object survived two full collections in round "
          << Round;
    }
    // Forget reclaimed objects (their cells may be reused).
    std::erase_if(Everything, [&](ObjectRef Ref) {
      return RT.heap().loadColor(Ref) == Color::Blue;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GcPropertyTest,
    ::testing::Values(
        PropertyParam{CollectorChoice::Generational, false, 2, 16, 1},
        PropertyParam{CollectorChoice::Generational, false, 2, 16, 2},
        PropertyParam{CollectorChoice::Generational, false, 2, 512, 3},
        PropertyParam{CollectorChoice::Generational, false, 2, 4096, 4},
        PropertyParam{CollectorChoice::Generational, true, 2, 16, 5},
        PropertyParam{CollectorChoice::Generational, true, 4, 16, 6},
        PropertyParam{CollectorChoice::Generational, true, 6, 256, 7},
        PropertyParam{CollectorChoice::NonGenerational, false, 2, 16, 8},
        PropertyParam{CollectorChoice::NonGenerational, false, 2, 16, 9}),
    [](const auto &Info) { return caseName(Info.param); });

} // namespace
