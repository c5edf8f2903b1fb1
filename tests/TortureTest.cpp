//===- tests/TortureTest.cpp - Torture subsystem smoke --------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Tier-1-sized runs of the stress/ torture subsystem: every protocol
/// through a perturbed adversarial mix with the invariant oracles on, plus
/// direct tests of the two accounting bugs the torture oracles were built
/// to catch (racy counter aggregation, guest-exception success counting).
///
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"
#include "stress/TortureRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::stress;

namespace {

TortureConfig smokeConfig(TortureProtocol P, uint64_t Seed) {
  TortureConfig C;
  C.Protocol = P;
  C.Threads = 4;
  C.WritePercent = 20;
  C.GuestThrowPercent = 5;
  C.Seed = Seed;
  C.IterationsPerThread = 1500;
  C.AsyncStormPeriod = std::chrono::microseconds(500);
  // Keep the smoke fast: cap perturbation sleeps well under the tier-1
  // budget while leaving yields/spins at full strength.
  C.Perturbation.SleepMax = std::chrono::microseconds(50);
  return C;
}

} // namespace

TEST(Torture, SoleroOraclesHoldUnderPerturbation) {
  TortureReport R = runTorture(smokeConfig(TortureProtocol::Solero, 7));
  EXPECT_TRUE(R.passed()) << R.summary();
  EXPECT_GT(R.Reads, 0u);
  EXPECT_GT(R.Writes, 0u);
  EXPECT_GT(R.GuestThrows, 0u);
#if defined(SOLERO_INJECTION_POINTS)
  EXPECT_GT(R.InjectionFirings, 0u)
      << "perturber armed but no injection site fired";
#endif
}

TEST(Torture, TasukiOraclesHoldUnderPerturbation) {
  TortureConfig C = smokeConfig(TortureProtocol::Tasuki, 11);
  C.GuestThrowPercent = 0; // non-elided sections propagate throws as-is
  TortureReport R = runTorture(C);
  EXPECT_TRUE(R.passed()) << R.summary();
}

TEST(Torture, SeqLockOraclesHoldUnderPerturbation) {
  TortureReport R = runTorture(smokeConfig(TortureProtocol::SeqLock, 13));
  EXPECT_TRUE(R.passed()) << R.summary();
  EXPECT_GT(R.GuestThrows, 0u);
}

TEST(Torture, RWLockOraclesHoldUnderPerturbation) {
  TortureConfig C = smokeConfig(TortureProtocol::RWLock, 17);
  C.GuestThrowPercent = 0;
  TortureReport R = runTorture(C);
  EXPECT_TRUE(R.passed()) << R.summary();
}

TEST(Torture, BravoRWOraclesHoldUnderPerturbation) {
  TortureConfig C = smokeConfig(TortureProtocol::BravoRW, 19);
  C.GuestThrowPercent = 0; // pessimistic readers propagate throws as-is
  TortureReport R = runTorture(C);
  EXPECT_TRUE(R.passed()) << R.summary();
  EXPECT_GT(R.Reads, 0u);
  EXPECT_GT(R.Writes, 0u);
}

TEST(Torture, ShardedKvOraclesHoldUnderPerturbation) {
  TortureReport R = runTorture(smokeConfig(TortureProtocol::ShardedKv, 23));
  EXPECT_TRUE(R.passed()) << R.summary();
  EXPECT_GT(R.Reads, 0u);
  EXPECT_GT(R.Writes, 0u);
  // Pair reads under SOLERO shards validate guest throws like the bare
  // protocol does.
  EXPECT_GT(R.GuestThrows, 0u);
}

// Counter aggregation must be data-race-free: worker threads increment
// their RelaxedCounter cells while another thread aggregates. Before the
// counters became relaxed atomics this was a plain-uint64_t read/write
// race TSan flagged in every torture run.
TEST(Torture, CounterAggregationRacesCleanlyWithIncrements) {
  std::atomic<bool> Stop{false};
  constexpr int Writers = 4;
  constexpr uint64_t PerWriter = 200000;
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

  std::vector<std::thread> Ts;
  for (int W = 0; W < Writers; ++W)
    Ts.emplace_back([&] {
      ThreadState &TS = ThreadRegistry::current();
      for (uint64_t I = 0; I < PerWriter; ++I)
        ++TS.Counters.ElisionAttempts;
    });
  std::thread Aggregator([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      ProtocolCounters Now = ThreadRegistry::instance().totalCounters();
      EXPECT_LE(Before.ElisionAttempts.value(), Now.ElisionAttempts.value());
    }
  });
  for (auto &T : Ts)
    T.join();
  Stop.store(true, std::memory_order_release);
  Aggregator.join();

  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.ElisionAttempts - Before.ElisionAttempts,
            static_cast<uint64_t>(Writers) * PerWriter);
}

// A guest exception thrown out of a *consistent* speculative section is a
// genuine section completion: the attempt succeeded and must be counted,
// or attempts != successes + failures.
TEST(Torture, GenuineGuestExceptionCountsAsElisionSuccess) {
  RuntimeConfig RC;
  RC.AsyncEventPeriod = std::chrono::microseconds(0);
  RuntimeContext Ctx(RC);
  SoleroLock L(Ctx);
  ObjectHeader H;
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

  struct Boom {};
  EXPECT_THROW(L.synchronizedReadOnly(H, [](ReadGuard &) { throw Boom{}; }),
               Boom);

  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.ElisionAttempts - Before.ElisionAttempts, 1u);
  EXPECT_EQ(After.ElisionSuccesses - Before.ElisionSuccesses, 1u);
  EXPECT_EQ(After.ElisionFailures - Before.ElisionFailures, 0u);
}

// Same conservation law out of a read-mostly section.
TEST(Torture, GenuineGuestExceptionCountsAsSuccessInReadMostly) {
  RuntimeConfig RC;
  RC.AsyncEventPeriod = std::chrono::microseconds(0);
  RuntimeContext Ctx(RC);
  SoleroLock L(Ctx);
  ObjectHeader H;
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

  struct Boom {};
  EXPECT_THROW(
      L.synchronizedReadMostly(H, [](WriteIntent &) { throw Boom{}; }), Boom);

  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.ElisionAttempts - Before.ElisionAttempts, 1u);
  EXPECT_EQ(After.ElisionSuccesses - Before.ElisionSuccesses, 1u);
  EXPECT_EQ(After.ElisionFailures - Before.ElisionFailures, 0u);
}
