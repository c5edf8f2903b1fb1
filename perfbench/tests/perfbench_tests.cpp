//===- perfbench/tests/perfbench_tests.cpp - The benchmark's own tests ----===//
///
/// \file
/// Checks the parts of the benchmark its figures rest on: the self-time
/// arithmetic of the ledger, percentile and sample-count selection, the
/// output oracles, and the determinism of the seeded op streams.
///
/// Build and run with `python3 perfbench/run.py --test`.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "Exec.h"
#include "GuestPrograms.h"
#include "Measure.h"
#include "Trace.h"
#include "Workload.h"
#include "runtime/RuntimeContext.h"
#include "workloads/LockPolicies.h"

using namespace perfbench;

namespace {

Span span(SpanName N, uint32_t Parent, uint64_t Start, uint64_t End) {
  Span S;
  S.Name = N;
  S.Parent = Parent;
  S.Start = Start;
  S.End = End;
  return S;
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  // request [0,100): gen [5,15), kv.get [20,90)
  //   kv.get: two body attempts [30,40) and [50,80)
  std::vector<Span> S = {
      span(SpRequest, NoParent, 0, 100), span(SpGen, 0, 5, 15),
      span(SpKvGet, 0, 20, 90),          span(SpTableGet, 2, 30, 40),
      span(SpTableGet, 2, 50, 80),
  };
  std::vector<uint64_t> Self = selfTimes(S.data(), S.size());
  EXPECT_EQ(Self, (std::vector<uint64_t>{100 - 10 - 70, 10, 70 - 10 - 30, 10, 30}));
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<Span> S = {
      span(SpKvScan, NoParent, 100, 200),
      span(SpTableScan, 0, 90, 130),  // starts before the parent: [100,130)
      span(SpTableScan, 0, 120, 150), // overlaps the previous: adds [130,150)
      span(SpTableScan, 0, 190, 260), // ends after the parent: [190,200)
  };
  std::vector<uint64_t> Self = selfTimes(S.data(), S.size());
  EXPECT_EQ(Self[0], 100u - 30 - 20 - 10);
}

TEST(SelfTime, LedgerChargesLayers) {
  SpanBuffer B(64);
  ASSERT_TRUE(B.beginRequest(1));
  uint32_t R = B.open(SpRequest);
  uint32_t G = B.open(SpKvGet);
  uint32_t T = B.open(SpTableGet);
  B.close(T);
  B.close(G);
  B.close(R);
  Ledger L;
  L.add(B);
  EXPECT_EQ(L.Requests, 1u);
  EXPECT_EQ(L.ByName[SpKvGet].Count, 1u);
  const double Shares = L.layerShare(LayBench) + L.layerShare(LayLock) +
                        L.layerShare(LayKv);
  EXPECT_NEAR(Shares, 1.0, 1e-9);
}

TEST(SpanBuffer, DropsRequestsThatCannotFitWhole) {
  SpanBuffer B(SpanBuffer::MaxSpansPerRequest);
  ASSERT_TRUE(B.beginRequest(1));
  B.close(B.open(SpRequest));
  EXPECT_FALSE(B.beginRequest(2));
  EXPECT_EQ(B.dropped(), 1u);
}

TEST(Percentiles, NearestRankOnExactTicks) {
  TickHistogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 1000u);
  EXPECT_EQ(H.percentile(50), 500u);
  EXPECT_EQ(H.percentile(99), 990u);
  EXPECT_EQ(H.percentile(99.9), 999u);
  EXPECT_EQ(H.percentile(100), 1000u);
  EXPECT_EQ(H.max(), 1000u);
}

TEST(Percentiles, LogBucketsAboveTheExactRange) {
  TickHistogram H;
  const uint64_t Big = TickHistogram::ExactTicks * 5 + 77;
  H.record(Big);
  const uint64_t Low = H.percentile(50);
  EXPECT_LE(Low, Big);
  EXPECT_GE(double(Low), double(Big) * (1.0 - 1.0 / 128));
  for (uint64_t V : {uint64_t(4096), uint64_t(8191), uint64_t(1) << 40})
    EXPECT_EQ(TickHistogram::bucketLow(TickHistogram::bucketIndex(V)) <= V, true);
}

TEST(Percentiles, SampleCountSelectsTheReportablePercentile) {
  EXPECT_FALSE(percentileSupported(99, 999));
  EXPECT_TRUE(percentileSupported(99, 1000));
  EXPECT_TRUE(percentileSupported(99.9, 10000));
  EXPECT_EQ(highestSupportedPercentile(5), 0.0);
  EXPECT_EQ(highestSupportedPercentile(20), 50.0);
  EXPECT_EQ(highestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(highestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Oracle, PlantedWrongTagIsAFailedGet) {
  solero::RuntimeContext Ctx;
  solero::kv::ShardedKvStore<solero::TasukiPolicy> Store(Ctx);
  Store.put(7, taggedValue(7, 1));
  Store.put(8, taggedValue(9, 1)); // planted: key 8 holds key 9's value
  KvExpect X;
  ClientTally T;
  uint64_t Lat = 0;
  EXPECT_TRUE((execKv<false>(Store, Op{OpKind::Get, 7}, X, T, nullptr, Lat)));
  EXPECT_FALSE((execKv<false>(Store, Op{OpKind::Get, 8}, X, T, nullptr, Lat)));
  EXPECT_FALSE((execKv<true>(Store, Op{OpKind::Get, 8}, X, T, nullptr, Lat)));
  EXPECT_TRUE((execKv<false>(Store, Op{OpKind::Get, 1234}, X, T, nullptr, Lat)));
  EXPECT_EQ(T.Attempted, 4u);
  EXPECT_EQ(T.Failed, 2u);
}

TEST(Oracle, PlantedMissIsAFailedGetOnAFixedKeySet) {
  solero::RuntimeContext Ctx;
  solero::kv::ShardedKvStore<solero::SoleroPolicy> Store(Ctx);
  Store.put(7, taggedValue(7, 1)); // key 8 is planted missing
  KvExpect X;
  X.NoMisses = true;
  ClientTally T;
  uint64_t Lat = 0;
  EXPECT_TRUE((execKv<false>(Store, Op{OpKind::Get, 7}, X, T, nullptr, Lat)));
  EXPECT_FALSE((execKv<false>(Store, Op{OpKind::Get, 8}, X, T, nullptr, Lat)));
  EXPECT_FALSE((execKv<true>(Store, Op{OpKind::Get, 8}, X, T, nullptr, Lat)));
  EXPECT_TRUE((execKv<true>(Store, Op{OpKind::Get, 7}, X, T, nullptr, Lat)));
  EXPECT_EQ(T.Attempted, 4u);
  EXPECT_EQ(T.Failed, 2u);
}

TEST(Oracle, ScanCountMismatchIsAFailure) {
  solero::RuntimeContext Ctx;
  solero::kv::ShardedKvStore<solero::SoleroPolicy> Store(Ctx);
  for (uint64_t K = 0; K < 100; ++K)
    Store.put(K, taggedValue(K, 0));
  KvExpect X;
  for (unsigned S = 0; S < Store.shardCount(); ++S)
    X.ShardLive.push_back(Store.shardTable(S).liveCount());
  ClientTally T;
  uint64_t Lat = 0;
  EXPECT_TRUE((execKv<false>(Store, Op{OpKind::Scan, 3}, X, T, nullptr, Lat)));
  X.ShardLive[3] += 1;
  EXPECT_FALSE((execKv<true>(Store, Op{OpKind::Scan, 3}, X, T, nullptr, Lat)));
  EXPECT_EQ(T.Failed, 1u);
}

TEST(Oracle, PlantedNonZeroGuestSumIsAFailedRead) {
  solero::RuntimeContext Ctx;
  solero::jit::Interpreter I(Ctx, solero::bench::buildConfigGuest());
  GuestTarget G{&I, I.allocateObject(), I.module().methodId("readConfig"),
                I.module().methodId("writeConfig")};
  ClientTally T;
  uint64_t Lat = 0;
  EXPECT_TRUE(execGuest(G, Op{OpKind::GuestWrite, 41}, T, nullptr, Lat));
  EXPECT_TRUE(execGuest(G, Op{OpKind::GuestRead, 0}, T, nullptr, Lat));
  G.Obj->F[2].write(5); // planted torn state: v, -v, 5, -v
  EXPECT_FALSE(execGuest(G, Op{OpKind::GuestRead, 0}, T, nullptr, Lat));
  EXPECT_EQ(T.Failed, 1u);
}

TEST(Oracle, PlantedNonZeroNativeConfigSumIsAFailedRead) {
  solero::RuntimeContext Ctx;
  NativeConfig C(Ctx);
  ClientTally T;
  uint64_t Lat = 0;
  EXPECT_TRUE((execConfig<false>(C, Op{OpKind::GuestWrite, 41}, T, nullptr, Lat)));
  EXPECT_TRUE((execConfig<true>(C, Op{OpKind::GuestRead, 0}, T, nullptr, Lat)));
  EXPECT_EQ(C.F[1].read(), -41);
  C.F[3].write(5); // planted torn state: v, -v, v, 5
  EXPECT_FALSE((execConfig<false>(C, Op{OpKind::GuestRead, 0}, T, nullptr, Lat)));
  EXPECT_EQ(T.Failed, 1u);
  EXPECT_EQ(T.ReadSections, 1u); // only the traced form counts sections
}

TEST(OpStream, SameSeedSameStream) {
  for (const WorkloadSpec &W : workloads()) {
    std::shared_ptr<const solero::ZipfianSampler> Z;
    if (W.Zipf > 0)
      Z = std::make_shared<solero::ZipfianSampler>(W.Keys, W.Zipf);
    OpStream A(W, 42, 1, Z), B(W, 42, 1, Z), C(W, 43, 1, Z), D(W, 42, 2, Z);
    unsigned DiffSeed = 0, DiffClient = 0;
    unsigned Counts[6] = {};
    for (int I = 0; I < 20000; ++I) {
      Op X = A.next(), Y = B.next(), Zs = C.next(), Zc = D.next();
      ASSERT_EQ(X.Kind, Y.Kind);
      ASSERT_EQ(X.Key, Y.Key);
      DiffSeed += X.Key != Zs.Key;
      DiffClient += X.Key != Zc.Key;
      ++Counts[static_cast<int>(X.Kind)];
      if (!W.Guest) {
        ASSERT_LT(X.Key, X.Kind == OpKind::Scan ? KvShards : W.Keys);
      }
    }
    EXPECT_GT(DiffSeed, 1000u) << W.Name;
    EXPECT_GT(DiffClient, 1000u) << W.Name;
    // The mix matches the spec within a few percent.
    const double Reads = Counts[int(W.Guest ? OpKind::GuestRead : OpKind::Get)];
    EXPECT_NEAR(Reads / 20000.0, W.GetPct / 100.0, 0.02) << W.Name;
  }
}

TEST(OpStream, PrefillIsSeededAndNearItsShare) {
  const WorkloadSpec &W = *findWorkload("kv-write-churn");
  uint64_t N = 0, Same = 0;
  for (uint64_t K = 0; K < 100000; ++K) {
    N += prefilled(W, 5, K);
    Same += prefilled(W, 5, K) == prefilled(W, 6, K);
  }
  EXPECT_NEAR(double(N) / 100000.0, W.PrefillShare, 0.01);
  EXPECT_LT(Same, 60000u);
  EXPECT_TRUE(prefilled(*findWorkload("kv-read-hot"), 5, 123));
}

} // namespace
