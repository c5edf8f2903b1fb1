//===- tests/SynchronizedMapTest.cpp - Lock x map integration tests -------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Typed integration tests: every lock policy (Lock, RWLock, SOLERO and its
/// ablation variants) must give the synchronized maps linearizable
/// behaviour under concurrent readers and writers.
///
//===----------------------------------------------------------------------===//

#include "collections/SynchronizedMap.h"

#include "collections/JavaHashMap.h"
#include "collections/JavaTreeMap.h"
#include "support/Barrier.h"
#include "support/Rng.h"
#include "workloads/LockPolicies.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;

namespace {

struct UnelidedSoleroPolicy : SoleroPolicy {
  explicit UnelidedSoleroPolicy(RuntimeContext &Ctx)
      : SoleroPolicy(Ctx, unelidedSoleroConfig()) {}
  static const char *name() { return "Unelided-SOLERO"; }
};

struct WeakBarrierSoleroPolicy : SoleroPolicy {
  explicit WeakBarrierSoleroPolicy(RuntimeContext &Ctx)
      : SoleroPolicy(Ctx, weakBarrierSoleroConfig()) {}
  static const char *name() { return "WeakBarrier-SOLERO"; }
};

template <typename PolicyT>
class SynchronizedMapTest : public SuiteContext<> {
public:
  static void SetUpTestSuite() {
    RuntimeConfig C;
    // Run the async ticker: TreeMap speculation relies on it to break
    // inconsistent-read descent loops promptly.
    C.AsyncEventPeriod = std::chrono::microseconds(1000);
    start(C);
  }
};

using AllPolicies =
    ::testing::Types<TasukiPolicy, RwPolicy, SoleroPolicy,
                     UnelidedSoleroPolicy, WeakBarrierSoleroPolicy>;

class PolicyNames {
public:
  template <typename T> static std::string GetName(int) { return T::name(); }
};

TYPED_TEST_SUITE(SynchronizedMapTest, AllPolicies, PolicyNames);

} // namespace

TYPED_TEST(SynchronizedMapTest, HashMapSingleThreadBasics) {
  SynchronizedMap<JavaHashMap<int64_t, int64_t>, TypeParam> M(this->ctx());
  EXPECT_TRUE(M.put(1, 10));
  EXPECT_EQ(M.get(1).value(), 10);
  EXPECT_TRUE(M.contains(1));
  EXPECT_TRUE(M.remove(1));
  EXPECT_EQ(M.size(), 0u);
}

TYPED_TEST(SynchronizedMapTest, TreeMapSingleThreadBasics) {
  SynchronizedMap<JavaTreeMap<int64_t, int64_t>, TypeParam> M(this->ctx());
  for (int64_t I = 0; I < 500; ++I)
    M.put(I, I * 2);
  EXPECT_EQ(M.size(), 500u);
  for (int64_t I = 0; I < 500; ++I)
    EXPECT_EQ(M.get(I).value(), I * 2);
}

TYPED_TEST(SynchronizedMapTest, HashMapReadersSeeMonotonicValues) {
  // A single writer increments per-key counters; since every write is a
  // critical section, any reader must observe per-key values that only
  // grow. A torn or inconsistent read would break monotonicity.
  constexpr int64_t Keys = 64;
  constexpr int Rounds = 15000;
  constexpr int Readers = 3;
  SynchronizedMap<JavaHashMap<int64_t, int64_t>, TypeParam> M(this->ctx());
  for (int64_t K = 0; K < Keys; ++K)
    M.put(K, 0);
  std::atomic<bool> Stop{false};
  std::atomic<bool> Violation{false};
  SpinBarrier Start(Readers + 1);

  std::thread Writer([&] {
    Start.arriveAndWait();
    Xoshiro256StarStar Rng(1);
    for (int I = 0; I < Rounds; ++I) {
      int64_t K = static_cast<int64_t>(Rng.nextBounded(Keys));
      int64_t Cur = M.get(K).value();
      M.put(K, Cur + 1);
    }
    Stop.store(true);
  });
  std::vector<std::thread> Rs;
  for (int R = 0; R < Readers; ++R)
    Rs.emplace_back([&, R] {
      std::vector<int64_t> LastSeen(Keys, 0);
      Xoshiro256StarStar Rng(100 + R);
      Start.arriveAndWait();
      while (!Stop.load()) {
        int64_t K = static_cast<int64_t>(Rng.nextBounded(Keys));
        auto V = M.get(K);
        if (!V.has_value() || *V < LastSeen[K]) {
          Violation.store(true);
          return;
        }
        LastSeen[K] = *V;
      }
    });
  Writer.join();
  for (auto &T : Rs)
    T.join();
  EXPECT_FALSE(Violation.load());
}

TYPED_TEST(SynchronizedMapTest, TreeMapConcurrentChurnKeepsInvariants) {
  // Writers churn disjoint key ranges while readers look up random keys;
  // afterwards the tree must satisfy the red-black invariants and contain
  // exactly the writers' final state.
  constexpr int Writers = 2, Readers = 2;
  constexpr int64_t RangePerWriter = 128;
  constexpr int OpsPerWriter = 8000;
  SynchronizedMap<JavaTreeMap<int64_t, int64_t>, TypeParam> M(this->ctx());
  std::atomic<bool> Stop{false};
  SpinBarrier Start(Writers + Readers);
  std::vector<std::vector<int64_t>> Final(Writers);

  std::vector<std::thread> Ts;
  for (int W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      Final[W].assign(RangePerWriter, -1);
      Xoshiro256StarStar Rng(17 + W);
      Start.arriveAndWait();
      for (int I = 0; I < OpsPerWriter; ++I) {
        int64_t Off = static_cast<int64_t>(Rng.nextBounded(RangePerWriter));
        int64_t Key = W * RangePerWriter + Off;
        if (Rng.nextPercent(60)) {
          M.put(Key, I);
          Final[W][Off] = I;
        } else {
          M.remove(Key);
          Final[W][Off] = -1;
        }
      }
    });
  for (int R = 0; R < Readers; ++R)
    Ts.emplace_back([&, R] {
      Xoshiro256StarStar Rng(91 + R);
      Start.arriveAndWait();
      while (!Stop.load()) {
        int64_t Key =
            static_cast<int64_t>(Rng.nextBounded(Writers * RangePerWriter));
        (void)M.get(Key);
      }
    });
  for (int W = 0; W < Writers; ++W)
    Ts[W].join();
  Stop.store(true);
  for (int T = Writers; T < Writers + Readers; ++T)
    Ts[T].join();

  EXPECT_GT(M.unsynchronized().checkRedBlackInvariants(), 0);
  for (int W = 0; W < Writers; ++W)
    for (int64_t Off = 0; Off < RangePerWriter; ++Off) {
      int64_t Key = W * RangePerWriter + Off;
      auto V = M.get(Key);
      if (Final[W][Off] < 0)
        EXPECT_FALSE(V.has_value()) << "key " << Key;
      else {
        ASSERT_TRUE(V.has_value()) << "key " << Key;
        EXPECT_EQ(*V, Final[W][Off]);
      }
    }
}

TYPED_TEST(SynchronizedMapTest, HashMapSizeNeverGoesNegative) {
  SynchronizedMap<JavaHashMap<int64_t, int64_t>, TypeParam> M(this->ctx());
  constexpr int Threads = 4, Iters = 3000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256StarStar Rng(T);
      for (int I = 0; I < Iters; ++I) {
        int64_t K = static_cast<int64_t>(Rng.nextBounded(64));
        if (Rng.nextPercent(50))
          M.put(K, I);
        else
          M.remove(K);
        std::size_t S = M.size();
        ASSERT_LE(S, 64u);
      }
    });
  for (auto &T : Ts)
    T.join();
}
