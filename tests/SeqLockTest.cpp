//===- tests/SeqLockTest.cpp - Plain sequential lock tests ----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "locks/SeqLock.h"
#include "workloads/LockPolicies.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;

TEST(SeqLock, CounterParity) {
  SeqLock L;
  EXPECT_EQ(L.value() & 1, 0u);
  L.writeLock();
  EXPECT_EQ(L.value() & 1, 1u); // odd while held (Figure 4)
  L.writeUnlock();
  EXPECT_EQ(L.value() & 1, 0u);
  EXPECT_EQ(L.value(), 2u); // two increments per writing section
}

TEST(SeqLock, ReadSucceedsWhenQuiescent) {
  SeqLock L;
  uint64_t V = L.readBegin();
  EXPECT_FALSE(L.readRetry(V));
}

TEST(SeqLock, ReadRetriesAfterWrite) {
  SeqLock L;
  uint64_t V = L.readBegin();
  L.writeProtected([] {});
  EXPECT_TRUE(L.readRetry(V));
}

TEST(SeqLock, ReadProtectedRetriesUntilConsistent) {
  SeqLock L;
  int Calls = 0;
  int Result = L.readProtected([&] {
    if (Calls++ == 0)
      L.writeProtected([] {}); // interference on the first attempt only
    return 42;
  });
  EXPECT_EQ(Result, 42);
  EXPECT_EQ(Calls, 2);
}

// Section 3.3's rule, applied to the seqlock policy: a throw escapes a read
// section only when the snapshot it came from was consistent. The first
// execution is torn by a writer and throws, so it must re-execute; the
// second, clean execution's throw propagates.
TEST(SeqLock, PolicyReExecutesTornThrowAndPropagatesCleanOne) {
  RuntimeContext Ctx(quietConfig());
  SeqLockPolicy P(Ctx);
  struct Boom {
    int Execution;
  };
  int Executions = 0;
  try {
    P.read([&](ReadGuard &) -> int {
      if (++Executions == 1) {
        P.protocol().writeLock();
        P.protocol().writeUnlock();
      }
      throw Boom{Executions};
    });
    ADD_FAILURE() << "the clean execution's throw must propagate";
  } catch (const Boom &B) {
    EXPECT_EQ(B.Execution, 2);
  }
  EXPECT_EQ(Executions, 2);
  EXPECT_TRUE(P.released());
}

TEST(SeqLock, WritersAreMutuallyExclusive) {
  SeqLock L;
  constexpr int Threads = 4, Iters = 20000;
  // Two plain (non-atomic would be UB; use relaxed atomics) fields that a
  // consistent reader must observe as equal.
  std::atomic<uint64_t> A{0}, B{0};
  std::vector<std::thread> Ts;
  std::atomic<bool> Mismatch{false};
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      if (T == 0) {
        for (int I = 0; I < Iters; ++I)
          L.writeProtected([&] {
            A.store(A.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
            B.store(B.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
          });
      } else {
        for (int I = 0; I < Iters; ++I) {
          auto Pair = L.readProtected([&] {
            return std::pair<uint64_t, uint64_t>(
                A.load(std::memory_order_relaxed),
                B.load(std::memory_order_relaxed));
          });
          if (Pair.first != Pair.second)
            Mismatch.store(true);
        }
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Mismatch.load());
  EXPECT_EQ(A.load(), static_cast<uint64_t>(Iters));
}
