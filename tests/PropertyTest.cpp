//===- tests/PropertyTest.cpp - Parameterized property sweeps -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// TEST_P property sweeps: randomized op sequences checked against
/// reference models across seeds and mix parameters, protocol-equivalence
/// properties (SOLERO must be observationally identical to the
/// conventional lock), and lock-word algebra over random values.
///
//===----------------------------------------------------------------------===//

#include "collections/JavaHashMap.h"
#include "collections/JavaTreeMap.h"
#include "collections/SynchronizedMap.h"
#include "support/Rng.h"
#include "workloads/LockPolicies.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <thread>
#include <tuple>

using namespace solero;

// --- Randomized maps vs reference model, swept over (seed, write%) ------

class MapModelProperty
    : public SuiteContext<
          ::testing::TestWithParam<std::tuple<uint64_t, unsigned>>> {};

TEST_P(MapModelProperty, HashMapMatchesModelUnderSolero) {
  auto [Seed, WritePct] = GetParam();
  SynchronizedMap<JavaHashMap<int64_t, int64_t>, SoleroPolicy> M(ctx());
  std::map<int64_t, int64_t> Ref;
  Xoshiro256StarStar Rng(Seed);
  for (int Op = 0; Op < 8000; ++Op) {
    int64_t K = static_cast<int64_t>(Rng.nextBounded(256));
    if (Rng.nextBounded(100) < WritePct) {
      if (Rng.nextPercent(70)) {
        int64_t V = static_cast<int64_t>(Rng.next() >> 1);
        ASSERT_EQ(M.put(K, V), Ref.insert_or_assign(K, V).second);
      } else {
        ASSERT_EQ(M.remove(K), Ref.erase(K) == 1);
      }
    } else {
      auto Got = M.get(K);
      auto It = Ref.find(K);
      ASSERT_EQ(Got.has_value(), It != Ref.end());
      if (Got) {
        ASSERT_EQ(*Got, It->second);
      }
    }
  }
  ASSERT_EQ(M.size(), Ref.size());
}

TEST_P(MapModelProperty, TreeMapMatchesModelUnderSolero) {
  auto [Seed, WritePct] = GetParam();
  SynchronizedMap<JavaTreeMap<int64_t, int64_t>, SoleroPolicy> M(ctx());
  std::map<int64_t, int64_t> Ref;
  Xoshiro256StarStar Rng(Seed * 2654435761ULL + 1);
  for (int Op = 0; Op < 8000; ++Op) {
    int64_t K = static_cast<int64_t>(Rng.nextBounded(256));
    if (Rng.nextBounded(100) < WritePct) {
      if (Rng.nextPercent(70)) {
        int64_t V = static_cast<int64_t>(Rng.next() >> 1);
        ASSERT_EQ(M.put(K, V), Ref.insert_or_assign(K, V).second);
      } else {
        ASSERT_EQ(M.remove(K), Ref.erase(K) == 1);
      }
    } else {
      auto Got = M.get(K);
      auto It = Ref.find(K);
      ASSERT_EQ(Got.has_value(), It != Ref.end());
      if (Got) {
        ASSERT_EQ(*Got, It->second);
      }
    }
  }
  ASSERT_EQ(M.size(), Ref.size());
  ASSERT_GT(M.unsynchronized().checkRedBlackInvariants(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapModelProperty,
    ::testing::Combine(::testing::Values(1u, 42u, 0xdeadu, 77777u),
                       ::testing::Values(0u, 5u, 30u, 80u)),
    [](const ::testing::TestParamInfo<MapModelProperty::ParamType> &Info) {
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_w" +
             std::to_string(std::get<1>(Info.param));
    });

// --- Protocol observational equivalence ----------------------------------

class ProtocolEquivalence
    : public SuiteContext<::testing::TestWithParam<uint64_t>> {};

TEST_P(ProtocolEquivalence, SoleroAndTasukiProduceIdenticalResults) {
  // The same deterministic op sequence through SOLERO and through the
  // conventional lock must produce identical observable results.
  uint64_t Seed = GetParam();
  auto Run = [&]<typename Policy>(std::type_identity<Policy>) {
    SynchronizedMap<JavaHashMap<int64_t, int64_t>, Policy> M(ctx());
    Xoshiro256StarStar Rng(Seed);
    uint64_t Digest = 0;
    for (int Op = 0; Op < 5000; ++Op) {
      int64_t K = static_cast<int64_t>(Rng.nextBounded(128));
      switch (Rng.nextBounded(4)) {
      case 0:
        Digest = Digest * 31 + static_cast<uint64_t>(
                                   M.put(K, static_cast<int64_t>(Op)));
        break;
      case 1:
        Digest = Digest * 31 + static_cast<uint64_t>(M.remove(K));
        break;
      case 2:
        Digest = Digest * 31 + static_cast<uint64_t>(M.contains(K));
        break;
      default: {
        auto V = M.get(K);
        Digest = Digest * 31 + static_cast<uint64_t>(V ? *V : -1);
      }
      }
    }
    return Digest;
  };
  uint64_t SoleroDigest = Run(std::type_identity<SoleroPolicy>{});
  uint64_t TasukiDigest = Run(std::type_identity<TasukiPolicy>{});
  uint64_t RwDigest = Run(std::type_identity<RwPolicy>{});
  EXPECT_EQ(SoleroDigest, TasukiDigest);
  EXPECT_EQ(SoleroDigest, RwDigest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolEquivalence,
                         ::testing::Values(3u, 1999u, 0xabcdefu, 31337u,
                                           8675309u));

// --- Lock-word algebra over random values --------------------------------

class LockWordProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockWordProperty, HeldWordsAreNeverFree) {
  Xoshiro256StarStar Rng(GetParam());
  for (int I = 0; I < 10000; ++I) {
    uint64_t Tid = (Rng.nextBounded(500) + 1) << lockword::TidShift;
    uint64_t Rec = Rng.nextBounded(lockword::SoleroRecMax + 1);
    uint64_t Held =
        lockword::soleroHeldWord(Tid) + Rec * lockword::SoleroRecUnit;
    EXPECT_FALSE(lockword::soleroIsFree(Held));
    EXPECT_TRUE(lockword::soleroHeldBy(Held, Tid));
    EXPECT_EQ(lockword::soleroRecursion(Held), Rec);
    // No other thread id matches.
    uint64_t OtherTid = Tid + (1ULL << lockword::TidShift);
    EXPECT_FALSE(lockword::soleroHeldBy(Held, OtherTid));
  }
}

TEST_P(LockWordProperty, CounterWordsAreFreeAndDistinct) {
  Xoshiro256StarStar Rng(GetParam());
  for (int I = 0; I < 10000; ++I) {
    uint64_t C = Rng.nextBounded(1ULL << 40) * lockword::CounterUnit;
    EXPECT_TRUE(lockword::soleroIsFree(C));
    EXPECT_FALSE(lockword::isInflated(C));
    // A counter word never matches an inflated or held encoding.
    EXPECT_NE(C | lockword::InflationBit, C);
    EXPECT_NE(lockword::soleroHeldWord(C | (1ULL << lockword::TidShift)), C);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockWordProperty,
                         ::testing::Values(11u, 222u, 3333u));

// --- Elision engine properties under randomized interference -------------

class ElisionInterference
    : public SuiteContext<::testing::TestWithParam<unsigned>> {};

TEST_P(ElisionInterference, SnapshotsAlwaysConsistentAtAnyWriteRate) {
  // Property: whatever the writer rate, an elided two-field snapshot is
  // never torn. Parameter = writer duty cycle in percent.
  unsigned Duty = GetParam();
  SoleroLock L(ctx());
  ObjectHeader H;
  SharedField<int64_t> A{0}, B{0};
  std::atomic<bool> Stop{false};
  std::atomic<bool> Torn{false};
  std::thread Writer([&] {
    Xoshiro256StarStar Rng(Duty);
    for (int I = 1; I <= 20000; ++I) {
      if (Rng.nextBounded(100) < Duty)
        L.synchronizedWrite(H, [&] {
          A.write(I);
          B.write(-I);
        });
      else
        cpuRelax();
    }
    Stop.store(true);
  });
  std::thread Reader([&] {
    while (!Stop.load()) {
      auto P = L.synchronizedReadOnly(H, [&](ReadGuard &) {
        return std::pair<int64_t, int64_t>(A.read(), B.read());
      });
      if (P.first != -P.second)
        Torn.store(true);
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_FALSE(Torn.load());
}

INSTANTIATE_TEST_SUITE_P(Duty, ElisionInterference,
                         ::testing::Values(1u, 10u, 50u, 100u));
