//===- tests/WorkloadTest.cpp - Workload driver tests ---------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "workloads/DaCapoLikeWorkload.h"
#include "workloads/Harness.h"
#include "workloads/JbbWorkload.h"
#include "workloads/LockPolicies.h"
#include "workloads/MapWorkload.h"

#include "collections/JavaHashMap.h"
#include "collections/JavaTreeMap.h"
#include "collections/SynchronizedMap.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

using namespace solero;

namespace {

using Harness = SuiteContext<>;
using MapWorkloadTest = SuiteContext<>;
using JbbWorkloadTest = SuiteContext<>;
using DaCapoLikeWorkloadTest = SuiteContext<>;

using HashSyncMap = SynchronizedMap<JavaHashMap<int64_t, int64_t>,
                                    SoleroPolicy>;

HarnessOptions quickOpts() {
  HarnessOptions O;
  O.Window = std::chrono::milliseconds(60);
  O.Warmup = std::chrono::milliseconds(5);
  O.Trials = 1;
  return O;
}

} // namespace

TEST_F(Harness, CountsOpsAndTime) {
  std::atomic<uint64_t> Calls{0};
  BenchResult R = runThroughput(2, quickOpts(),
                                [&](int) { Calls.fetch_add(1); });
  EXPECT_GT(R.Ops, 0u);
  EXPECT_GT(R.OpsPerSec, 0.0);
  EXPECT_GE(Calls.load(), R.Ops); // warm-up calls are extra
  EXPECT_NEAR(R.Seconds, 0.06, 0.04);
}

TEST_F(Harness, DeltaCountersAreWindowScoped) {
  SoleroPolicy P(ctx());
  BenchResult R = runThroughput(1, quickOpts(), [&](int) {
    P.read([](ReadGuard &) { return 0; });
  });
  // Every op is one read-only entry; allow warm-up slop on the high side.
  EXPECT_GE(R.Delta.ReadOnlyEntries, R.Ops);
  EXPECT_DOUBLE_EQ(R.readOnlyRatio(), 1.0);
  EXPECT_GT(R.Delta.ElisionSuccesses, 0u);
}

TEST_F(MapWorkloadTest, ReadOnlyProfileElidesEverything) {
  MapWorkloadParams P;
  P.KeySpace = 256;
  P.WritePercent = 0;
  MapWorkload<HashSyncMap> W(P, [&](int) {
    return std::make_unique<HashSyncMap>(ctx());
  });
  BenchResult R = runThroughput(2, quickOpts(), std::ref(W));
  EXPECT_GT(R.Ops, 0u);
  EXPECT_DOUBLE_EQ(R.readOnlyRatio(), 1.0);
  // No writers: every speculative execution validates.
  EXPECT_EQ(R.Delta.ElisionFailures, 0u);
  EXPECT_TRUE(W.verifyFullyPopulated());
}

TEST_F(MapWorkloadTest, FivePercentWritesProfile) {
  MapWorkloadParams P;
  P.KeySpace = 256;
  P.WritePercent = 5;
  MapWorkload<HashSyncMap> W(P, [&](int) {
    return std::make_unique<HashSyncMap>(ctx());
  });
  BenchResult R = runThroughput(2, quickOpts(), std::ref(W));
  EXPECT_GT(R.Ops, 1000u);
  EXPECT_NEAR(R.readOnlyRatio(), 0.95, 0.02);
  EXPECT_TRUE(W.verifyFullyPopulated());
}

TEST_F(MapWorkloadTest, FineGrainedVariantUsesAllMaps) {
  MapWorkloadParams P;
  P.KeySpace = 128;
  P.WritePercent = 5;
  P.NumMaps = 4;
  int Created = 0;
  MapWorkload<HashSyncMap> W(P, [&](int) {
    ++Created;
    return std::make_unique<HashSyncMap>(ctx());
  });
  EXPECT_EQ(Created, 4);
  BenchResult R = runThroughput(4, quickOpts(), std::ref(W));
  EXPECT_GT(R.Ops, 0u);
  EXPECT_TRUE(W.verifyFullyPopulated());
}

TEST_F(JbbWorkloadTest, RunsAllTransactionTypes) {
  JbbParams P;
  P.Warehouses = 2;
  P.ItemCount = 256;
  JbbWorkload<SoleroPolicy> W(ctx(), P);
  BenchResult R = runThroughput(2, quickOpts(), std::ref(W));
  EXPECT_GT(R.Ops, 100u);
  // Table 1: SPECjbb2005 has 53.6% read-only locks; the synthetic mix must
  // land in that neighbourhood.
  EXPECT_NEAR(R.readOnlyRatio(), 0.54, 0.08);
}

TEST_F(JbbWorkloadTest, ScalesShareNothing) {
  JbbParams P;
  P.Warehouses = 4;
  P.ItemCount = 128;
  JbbWorkload<TasukiPolicy> W(ctx(), P);
  BenchResult R = runThroughput(4, quickOpts(), std::ref(W));
  EXPECT_GT(R.Ops, 100u);
  // Share-nothing: essentially no contention-driven inflations.
  EXPECT_EQ(R.Delta.Inflations, 0u);
}

TEST_F(DaCapoLikeWorkloadTest, ProfilesMatchTable1ReadOnlyRatios) {
  for (const DaCapoProfile &Prof : DaCapoProfiles) {
    DaCapoLikeWorkload<SoleroPolicy> W(ctx(), Prof, /*MaxThreads=*/2);
    BenchResult R = runThroughput(2, quickOpts(), std::ref(W));
    EXPECT_GT(R.Ops, 0u) << Prof.Name;
    EXPECT_NEAR(R.readOnlyRatio() * 100.0, Prof.PaperReadOnlyPercent, 1.0)
        << Prof.Name;
  }
}

TEST_F(DaCapoLikeWorkloadTest, SoleroOverheadIsBounded) {
  // Figure 16's claim: on low-read-only workloads SOLERO neither helps nor
  // hurts much. Functional smoke only (timing asserts are not portable):
  // both policies complete and stay consistent.
  const DaCapoProfile &H2 = DaCapoProfiles[0];
  DaCapoLikeWorkload<TasukiPolicy> WL(ctx(), H2, 2);
  DaCapoLikeWorkload<SoleroPolicy> WS(ctx(), H2, 2);
  EXPECT_GT(runThroughput(2, quickOpts(), std::ref(WL)).Ops, 0u);
  EXPECT_GT(runThroughput(2, quickOpts(), std::ref(WS)).Ops, 0u);
}
