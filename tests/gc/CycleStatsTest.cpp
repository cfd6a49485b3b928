//===- tests/gc/CycleStatsTest.cpp -----------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "obs/CycleStats.h"

using namespace gengc;

namespace {

GcRunStats sampleStats() {
  GcRunStats S;
  CycleStats P1;
  P1.Kind = CycleKind::Partial;
  P1.DurationNanos = 1000;
  P1.ObjectsFreed = 90;
  P1.YoungSurvivors = 10;
  P1.BytesFreed = 900;
  P1.YoungSurvivorBytes = 100;
  CycleStats P2 = P1;
  P2.DurationNanos = 3000;
  P2.ObjectsFreed = 70;
  P2.YoungSurvivors = 30;
  P2.BytesFreed = 700;
  P2.YoungSurvivorBytes = 300;
  CycleStats F;
  F.Kind = CycleKind::Full;
  F.DurationNanos = 10000;
  F.ObjectsFreed = 50;
  F.LiveObjectsAfter = 150;
  S.Cycles = {P1, P2, F};
  S.GcActiveNanos = 14000;
  return S;
}

TEST(CycleStats, KindNames) {
  EXPECT_STREQ(cycleKindName(CycleKind::Partial), "partial");
  EXPECT_STREQ(cycleKindName(CycleKind::Full), "full");
  EXPECT_STREQ(cycleKindName(CycleKind::NonGenerational),
               "non-generational");
}

TEST(CycleStats, CountPerKind) {
  GcRunStats S = sampleStats();
  EXPECT_EQ(S.count(CycleKind::Partial), 2u);
  EXPECT_EQ(S.count(CycleKind::Full), 1u);
  EXPECT_EQ(S.count(CycleKind::NonGenerational), 0u);
}

TEST(CycleStats, TotalsPerKind) {
  GcRunStats S = sampleStats();
  EXPECT_EQ(S.total(CycleKind::Partial, &CycleStats::ObjectsFreed), 160u);
  EXPECT_EQ(S.total(CycleKind::Full, &CycleStats::ObjectsFreed), 50u);
  EXPECT_EQ(S.totalAll(&CycleStats::ObjectsFreed), 210u);
}

TEST(CycleStats, MeanPerKind) {
  GcRunStats S = sampleStats();
  EXPECT_DOUBLE_EQ(S.mean(CycleKind::Partial, &CycleStats::DurationNanos),
                   2000.0);
  EXPECT_DOUBLE_EQ(S.mean(CycleKind::Full, &CycleStats::DurationNanos),
                   10000.0);
  EXPECT_DOUBLE_EQ(
      S.mean(CycleKind::NonGenerational, &CycleStats::DurationNanos), 0.0);
}

TEST(CycleStats, PercentActive) {
  GcRunStats S = sampleStats();
  EXPECT_DOUBLE_EQ(S.percentActive(28000), 50.0);
  EXPECT_DOUBLE_EQ(S.percentActive(0), 0.0);
}

TEST(CycleStats, PercentFreedPartial) {
  GcRunStats S = sampleStats();
  // freed 160 of (160 freed + 40 survivors).
  EXPECT_DOUBLE_EQ(S.percentFreedPartialObjects(), 80.0);
  EXPECT_DOUBLE_EQ(S.percentFreedPartialBytes(), 80.0);
}

TEST(CycleStats, PercentFreedWholeHeap) {
  GcRunStats S = sampleStats();
  // full: freed 50 of (50 + 150 live).
  EXPECT_DOUBLE_EQ(S.percentFreedWholeHeap(CycleKind::Full), 25.0);
}

TEST(CycleStats, EmptyStatsYieldZeroes) {
  GcRunStats S;
  EXPECT_EQ(S.count(CycleKind::Partial), 0u);
  EXPECT_DOUBLE_EQ(S.percentFreedPartialObjects(), 0.0);
  EXPECT_DOUBLE_EQ(S.percentFreedWholeHeap(CycleKind::Full), 0.0);
  EXPECT_DOUBLE_EQ(S.percentActive(1000), 0.0);
}

} // namespace
