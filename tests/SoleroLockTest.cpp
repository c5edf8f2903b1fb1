//===- tests/SoleroLockTest.cpp - SOLERO protocol tests -------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"

#include "runtime/AsyncEventBus.h"
#include "runtime/SharedField.h"

#include "SuiteContext.h"

#include <functional>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::lockword;

namespace {

class SoleroLockTest : public ::testing::Test {
protected:
  SoleroLockTest() : Ctx(quietConfig()), L(Ctx) {}

  ProtocolCounters delta() {
    ProtocolCounters D = ThreadRegistry::instance().totalCounters();
    D -= Base;
    return D;
  }
  void snap() { Base = ThreadRegistry::instance().totalCounters(); }

  RuntimeContext Ctx;
  SoleroLock L;
  ObjectHeader H;
  ProtocolCounters Base;
};

} // namespace

TEST_F(SoleroLockTest, WritingSectionAdvancesCounter) {
  EXPECT_EQ(H.word().load(), 0u);
  L.synchronizedWrite(H, [] {});
  EXPECT_EQ(H.word().load(), CounterUnit);
  L.synchronizedWrite(H, [] {});
  EXPECT_EQ(H.word().load(), 2 * CounterUnit);
}

TEST_F(SoleroLockTest, HeldWordIsThreadIdPlusLockBit) {
  ThreadState &TS = ThreadRegistry::current();
  L.synchronizedWrite(H, [&] {
    EXPECT_EQ(H.word().load(), soleroHeldWord(TS.tidBits()));
    EXPECT_TRUE(L.heldByCurrentThread(H));
  });
  EXPECT_FALSE(L.heldByCurrentThread(H));
}

TEST_F(SoleroLockTest, WriteRecursionNestsAndUnwinds) {
  L.synchronizedWrite(H, [&] {
    L.synchronizedWrite(H, [&] {
      L.synchronizedWrite(H, [&] {
        EXPECT_EQ(soleroRecursion(H.word().load()), 2u);
      });
    });
    EXPECT_EQ(soleroRecursion(H.word().load()), 0u);
  });
  // One counter increment for the whole outermost section.
  EXPECT_EQ(H.word().load(), CounterUnit);
}

TEST_F(SoleroLockTest, DeepRecursionBeyondFiveBits) {
  // 5 recursion bits hold 31 nested levels; go well past that to exercise
  // the overflow side table.
  const int Depth = static_cast<int>(SoleroRecMax) + 20;
  std::function<void(int)> Nest = [&](int N) {
    if (N == 0) {
      EXPECT_TRUE(L.heldByCurrentThread(H));
      return;
    }
    L.synchronizedWrite(H, [&] { Nest(N - 1); });
  };
  Nest(Depth);
  EXPECT_EQ(H.word().load(), CounterUnit);
  EXPECT_FALSE(L.heldByCurrentThread(H));
}

TEST_F(SoleroLockTest, QuiescentReadOnlyElides) {
  snap();
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
    EXPECT_TRUE(G.speculative());
    // Elided: the lock word was never written.
    EXPECT_TRUE(soleroIsFree(H.word().load()));
    return 5;
  });
  EXPECT_EQ(V, 5);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 1u);
  EXPECT_EQ(D.ElisionSuccesses, 1u);
  EXPECT_EQ(D.ElisionFailures, 0u);
  EXPECT_EQ(D.Fallbacks, 0u);
}

TEST_F(SoleroLockTest, ElisionWorksOnFreshLockWithCounterZero) {
  // Regression guard: counter value 0 is a legitimate free word, not a
  // "holding" sentinel.
  ASSERT_EQ(H.word().load(), 0u);
  snap();
  EXPECT_EQ(L.synchronizedReadOnly(H, [](ReadGuard &) { return 1; }), 1);
  EXPECT_EQ(delta().ElisionSuccesses, 1u);
}

TEST_F(SoleroLockTest, InterferenceCausesFallbackAfterOneFailure) {
  snap();
  int Executions = 0;
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
    if (Executions++ == 0) {
      // Simulate a concurrent writer completing a section.
      H.word().fetch_add(CounterUnit, std::memory_order_relaxed);
      EXPECT_TRUE(G.speculative());
    } else {
      // Paper behaviour: fallback after one failure acquires the lock.
      EXPECT_FALSE(G.speculative());
      EXPECT_TRUE(L.heldByCurrentThread(H));
    }
    return 9;
  });
  EXPECT_EQ(V, 9);
  EXPECT_EQ(Executions, 2);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionFailures, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);
  // The fallback's own release advanced the counter once more.
  EXPECT_EQ(H.word().load(), 2 * CounterUnit);
}

TEST_F(SoleroLockTest, UnelidedModeTakesTheLock) {
  SoleroConfig Cfg;
  Cfg.ElideReadOnly = false;
  SoleroLock LU(Ctx, Cfg);
  snap();
  LU.synchronizedReadOnly(H, [&](ReadGuard &G) {
    EXPECT_FALSE(G.speculative());
    EXPECT_TRUE(LU.heldByCurrentThread(H));
  });
  EXPECT_EQ(delta().ElisionAttempts, 0u);
  EXPECT_EQ(H.word().load(), CounterUnit);
}

TEST_F(SoleroLockTest, GenuineGuestExceptionPropagates) {
  snap();
  EXPECT_THROW(L.synchronizedReadOnly(H,
                                      [&](ReadGuard &) -> int {
                                        throw std::out_of_range("genuine");
                                      }),
               std::out_of_range);
  // Consistent reads: the exception is genuine, no retry.
  ProtocolCounters D = delta();
  EXPECT_EQ(D.FaultRetries, 0u);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST_F(SoleroLockTest, InconsistentExceptionIsAbsorbedAndRetried) {
  snap();
  int Executions = 0;
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &) -> int {
    if (Executions++ == 0) {
      // The "fault" coincides with a writer having changed the word:
      // Section 3.3 says the exception must be swallowed and retried.
      H.word().fetch_add(CounterUnit, std::memory_order_relaxed);
      throw std::runtime_error("spurious null deref");
    }
    return 13;
  });
  EXPECT_EQ(V, 13);
  EXPECT_EQ(Executions, 2);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.FaultRetries, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);
}

TEST_F(SoleroLockTest, ExceptionWhileHoldingReleasesAndPropagates) {
  int Executions = 0;
  EXPECT_THROW(L.synchronizedReadOnly(H,
                                      [&](ReadGuard &) -> int {
                                        if (Executions++ == 0)
                                          H.word().fetch_add(
                                              CounterUnit,
                                              std::memory_order_relaxed);
                                        throw std::runtime_error("always");
                                      }),
               std::runtime_error);
  EXPECT_EQ(Executions, 2);
  // The fallback held the lock when the exception escaped; it must have
  // been released on the way out.
  EXPECT_TRUE(soleroIsFree(H.word().load()));
  EXPECT_FALSE(L.heldByCurrentThread(H));
}

TEST_F(SoleroLockTest, AsyncCheckpointAbortsInvalidSpeculation) {
  snap();
  int Executions = 0;
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
    if (Executions++ == 0) {
      H.word().fetch_add(CounterUnit, std::memory_order_relaxed);
      AsyncEventBus::postToAllThreads();
      G.checkpoint(); // must throw SpeculationFault: word changed
      ADD_FAILURE() << "checkpoint did not abort";
    }
    return 17;
  });
  EXPECT_EQ(V, 17);
  EXPECT_EQ(Executions, 2);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.AsyncAborts, 1u);
  EXPECT_EQ(D.ElisionFailures, 1u);
}

TEST_F(SoleroLockTest, CheckpointIsNoOpWhenConsistent) {
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
    AsyncEventBus::postToAllThreads();
    G.checkpoint(); // consistent: must not throw
    return 19;
  });
  EXPECT_EQ(V, 19);
}

TEST_F(SoleroLockTest, ReadInsideWriteTakesRecursionPath) {
  snap();
  L.synchronizedWrite(H, [&] {
    int V = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
      EXPECT_FALSE(G.speculative()); // we hold the lock: no speculation
      EXPECT_EQ(soleroRecursion(H.word().load()), 1u);
      return 23;
    });
    EXPECT_EQ(V, 23);
    EXPECT_EQ(soleroRecursion(H.word().load()), 0u);
  });
  EXPECT_EQ(delta().ElisionAttempts, 0u);
  EXPECT_EQ(H.word().load(), CounterUnit);
}

TEST_F(SoleroLockTest, WriteInsideReadInvalidatesAndRetries) {
  // A writing section on the same lock inside a speculative read-only
  // section: the write succeeds (the word is free), which invalidates the
  // enclosing speculation; the retry holds the lock and nests recursively.
  int Executions = 0;
  int64_t Data = 0;
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &) {
    ++Executions;
    L.synchronizedWrite(H, [&] { ++Data; });
    return 29;
  });
  EXPECT_EQ(V, 29);
  EXPECT_EQ(Executions, 2);
  EXPECT_EQ(Data, 2); // the write body also re-executed
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST_F(SoleroLockTest, NestedElisionOnTwoLocks) {
  ObjectHeader H2;
  snap();
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &) {
    return L.synchronizedReadOnly(H2, [&](ReadGuard &G2) {
      EXPECT_TRUE(G2.speculative());
      return 31;
    });
  });
  EXPECT_EQ(V, 31);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 2u);
  EXPECT_EQ(D.ElisionSuccesses, 2u);
}

TEST_F(SoleroLockTest, OuterInvalidationUnwindsNestedSpeculation) {
  ObjectHeader H2;
  snap();
  int OuterRuns = 0, InnerRuns = 0;
  int V = L.synchronizedReadOnly(H, [&](ReadGuard &) {
    ++OuterRuns;
    return L.synchronizedReadOnly(H2, [&](ReadGuard &G2) {
      if (InnerRuns++ == 0) {
        // Invalidate the OUTER lock, then hit a check point: the fault must
        // unwind past the inner frame to the outer one.
        H.word().fetch_add(CounterUnit, std::memory_order_relaxed);
        AsyncEventBus::postToAllThreads();
        G2.checkpoint();
        ADD_FAILURE() << "checkpoint did not abort";
      }
      return 37;
    });
  });
  EXPECT_EQ(V, 37);
  EXPECT_EQ(OuterRuns, 2);
  EXPECT_EQ(InnerRuns, 2);
  EXPECT_GE(delta().AsyncAborts, 1u);
}

TEST_F(SoleroLockTest, MutualExclusionOfWritersUnderContention) {
  constexpr int Threads = 4, Iters = 4000;
  int64_t Plain = 0;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < Iters; ++I)
        L.synchronizedWrite(H, [&] { ++Plain; });
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Plain, static_cast<int64_t>(Threads) * Iters);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST_F(SoleroLockTest, ReadersObserveConsistentPairsUnderWriters) {
  // The seqlock-style consistency property, through the full SOLERO stack:
  // a writer keeps two fields equal; elided readers must never observe a
  // mixed pair.
  SharedField<int64_t> A, B;
  std::atomic<bool> Stop{false};
  std::atomic<bool> Mismatch{false};
  std::thread Writer([&] {
    for (int I = 1; I <= 30000; ++I)
      L.synchronizedWrite(H, [&] {
        A.write(I);
        B.write(I);
      });
    Stop.store(true);
  });
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Stop.load()) {
        auto Pair =
            L.synchronizedReadOnly(H, [&](ReadGuard &) {
              return std::pair<int64_t, int64_t>(A.read(), B.read());
            });
        if (Pair.first != Pair.second)
          Mismatch.store(true);
      }
    });
  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_FALSE(Mismatch.load());
  EXPECT_EQ(A.read(), 30000);
}

TEST_F(SoleroLockTest, InflatedEpisodeIsVisibleToSpanningReaders) {
  // A reader that spans an inflate/deflate episode must observe a changed
  // counter (the monitor stores the incremented counter, Section 3.2).
  ThreadState &TS = ThreadRegistry::current();
  SoleroLock::ReadEntry E = L.readEnter(H, TS);
  ASSERT_FALSE(E.Holding);
  uint64_t Before = E.V;

  std::thread Other([&] {
    ObjectHeader *HP = &H;
    // Acquire and force inflation while held, then release (deflates).
    ThreadState &OTS = ThreadRegistry::current();
    uint64_t V1 = L.enterWrite(*HP, OTS);
    Ctx.monitors().monitorFor(*HP).inflateHeldByOwner(*HP, OTS, 0,
                                                      V1 + CounterUnit);
    L.exitWrite(*HP, OTS, V1);
  });
  Other.join();

  EXPECT_TRUE(soleroIsFree(H.word().load())); // deflated
  EXPECT_FALSE(L.validate(H, Before));        // but the counter moved
}

TEST_F(SoleroLockTest, ReadMostlyPureReadElides) {
  snap();
  int V = L.synchronizedReadMostly(H, [&](WriteIntent &W) {
    EXPECT_FALSE(W.holding());
    return 41;
  });
  EXPECT_EQ(V, 41);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionSuccesses, 1u);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST_F(SoleroLockTest, ReadMostlyUpgradeAcquiresAndValidates) {
  SharedField<int64_t> Data{0};
  snap();
  int V = L.synchronizedReadMostly(H, [&](WriteIntent &W) {
    int64_t Seen = Data.read();
    W.acquireForWrite(); // Figure 17: CAS(v -> tid|LOCK)
    EXPECT_TRUE(W.holding());
    EXPECT_TRUE(L.heldByCurrentThread(H));
    Data.write(Seen + 1);
    return 43;
  });
  EXPECT_EQ(V, 43);
  EXPECT_EQ(Data.read(), 1);
  // Released with a counter increment.
  EXPECT_EQ(H.word().load(), CounterUnit);
  EXPECT_EQ(delta().ElisionSuccesses, 1u);
}

TEST_F(SoleroLockTest, ReadMostlyFailedUpgradeReExecutesHoldingLock) {
  snap();
  int Executions = 0;
  int V = L.synchronizedReadMostly(H, [&](WriteIntent &W) {
    if (Executions++ == 0) {
      // Invalidate before the upgrade: the CAS must fail and the engine
      // must re-execute while holding the lock (Figure 17 lines 12-14).
      H.word().fetch_add(CounterUnit, std::memory_order_relaxed);
      W.acquireForWrite();
      ADD_FAILURE() << "upgrade unexpectedly succeeded";
    } else {
      EXPECT_TRUE(W.holding());
      W.acquireForWrite(); // no-op now
    }
    return 47;
  });
  EXPECT_EQ(V, 47);
  EXPECT_EQ(Executions, 2);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.Fallbacks, 1u);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST_F(SoleroLockTest, ReadMostlyInsideWriteHoldsImmediately) {
  L.synchronizedWrite(H, [&] {
    int V = L.synchronizedReadMostly(H, [&](WriteIntent &W) {
      EXPECT_TRUE(W.holding());
      W.acquireForWrite(); // no-op
      return 53;
    });
    EXPECT_EQ(V, 53);
  });
  EXPECT_EQ(H.word().load(), CounterUnit);
}

TEST_F(SoleroLockTest, VoidReturningSectionsWork) {
  int Side = 0;
  L.synchronizedReadOnly(H, [&](ReadGuard &) { Side = 1; });
  EXPECT_EQ(Side, 1);
  L.synchronizedReadMostly(H, [&](WriteIntent &) { Side = 2; });
  EXPECT_EQ(Side, 2);
  L.synchronizedWrite(H, [&] { Side = 3; });
  EXPECT_EQ(Side, 3);
}

TEST_F(SoleroLockTest, ConcurrentReadersScaleWithoutLockWordWrites) {
  // While only readers run, the lock word must never change.
  constexpr int Threads = 4, Iters = 3000;
  SharedField<int64_t> Value{77};
  uint64_t WordBefore = H.word().load();
  std::atomic<int64_t> Sum{0};
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      int64_t Local = 0;
      for (int I = 0; I < Iters; ++I)
        Local += L.synchronizedReadOnly(
            H, [&](ReadGuard &) { return Value.read(); });
      Sum.fetch_add(Local);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Sum.load(), static_cast<int64_t>(Threads) * Iters * 77);
  EXPECT_EQ(H.word().load(), WordBefore);
}

TEST_F(SoleroLockTest, WeakBarrierModeStillValidates) {
  SoleroConfig Cfg;
  Cfg.Barriers = BarrierMode::Weak;
  SoleroLock LW(Ctx, Cfg);
  int Executions = 0;
  int V = LW.synchronizedReadOnly(H, [&](ReadGuard &) {
    if (Executions++ == 0)
      H.word().fetch_add(CounterUnit, std::memory_order_relaxed);
    return 59;
  });
  EXPECT_EQ(V, 59);
  EXPECT_EQ(Executions, 2);
}
