//===- tests/ResilienceTest.cpp - Overload-resilience primitives ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Unit coverage for the chaos/overload layer (DESIGN.md §17): deadlines
/// charged from scheduled arrivals, the token-bucket retry budget, the
/// hysteretic shed controller, the bounded catch-up arrival schedule
/// (the coordinated-omission fix), jittered ExpBackoff distribution
/// bounds, and the ChaosDirector's byte-for-byte schedule determinism.
///
//===----------------------------------------------------------------------===//

#include "resilience/Deadline.h"
#include "resilience/RetryBudget.h"
#include "resilience/ShedController.h"
#include "stress/ChaosDirector.h"
#include "support/Backoff.h"
#include "support/Distributions.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace solero;
using namespace solero::resilience;

TEST(Deadline, ChargedFromScheduledArrival) {
  Deadline D = Deadline::fromScheduled(1000, 500);
  EXPECT_FALSE(D.unbounded());
  EXPECT_FALSE(D.expired(1000));
  EXPECT_FALSE(D.expired(1500)); // exactly at the deadline is in budget
  EXPECT_TRUE(D.expired(1501));
  EXPECT_EQ(D.remainingNs(1200), 300u);
  EXPECT_EQ(D.remainingNs(2000), 0u);

  Deadline None;
  EXPECT_TRUE(None.unbounded());
  EXPECT_FALSE(None.expired(~0ull - 1));
}

TEST(RetryBudget, BurstThenRefillAtRate) {
  // 100 tokens/s, burst of 3, virtual clock.
  RetryBudget B(100.0, 3.0, 0);
  EXPECT_TRUE(B.tryAcquire(0));
  EXPECT_TRUE(B.tryAcquire(0));
  EXPECT_TRUE(B.tryAcquire(0));
  EXPECT_FALSE(B.tryAcquire(0)); // bucket dry: fail fast, no retry storm
  EXPECT_EQ(B.granted(), 3u);
  EXPECT_EQ(B.denied(), 1u);

  // 10ms at 100/s refills exactly one token.
  EXPECT_TRUE(B.tryAcquire(10'000'000));
  EXPECT_FALSE(B.tryAcquire(10'000'000));

  // The cap bounds accumulation: an hour idle still yields Burst tokens.
  EXPECT_DOUBLE_EQ(B.available(3600ull * 1'000'000'000), 3.0);
}

TEST(RetryBudget, BackwardsClockDoesNotDrain) {
  RetryBudget B(100.0, 2.0, 1'000'000);
  EXPECT_TRUE(B.tryAcquire(1'000'000));
  // A clock observation before the last one must be a refill no-op (the
  // chaos campaign's ClockJump makes this reachable), not a drain or a
  // huge unsigned-underflow refill.
  EXPECT_DOUBLE_EQ(B.available(500), 1.0);
  EXPECT_TRUE(B.tryAcquire(500));
  EXPECT_FALSE(B.tryAcquire(500));
}

TEST(ShedController, HysteresisAndPriorityOrder) {
  ShedConfig C;
  C.SloP99Ns = 1000;
  C.ReadmitRatio = 0.5;
  C.BacklogBreachNs = 10000;
  C.BreachStreak = 2;
  C.ClearStreak = 2;
  ShedController S(C);

  EXPECT_TRUE(S.admit(OpPriority::Scan));
  EXPECT_TRUE(S.admit(OpPriority::Get));
  EXPECT_TRUE(S.admit(OpPriority::Mutate));

  // One breached window is noise; BreachStreak consecutive ones shed.
  S.onWindow(2000, 0);
  EXPECT_EQ(S.level(), 0u);
  S.onWindow(2000, 0);
  EXPECT_EQ(S.level(), 1u);
  EXPECT_FALSE(S.admit(OpPriority::Scan)); // scans go first
  EXPECT_TRUE(S.admit(OpPriority::Get));

  // Queue depth breaches on its own, before the p99 does.
  S.onWindow(100, 20000);
  S.onWindow(100, 20000);
  EXPECT_EQ(S.level(), 2u);
  EXPECT_FALSE(S.admit(OpPriority::Get));
  EXPECT_TRUE(S.admit(OpPriority::Mutate)); // mutations are never shed

  // Level saturates at MaxLevel.
  S.onWindow(2000, 0);
  S.onWindow(2000, 0);
  EXPECT_EQ(S.level(), ShedController::MaxLevel);

  // Windows inside the hysteresis band (<= SLO but above the re-admit
  // bar) hold the level: neither breach nor healthy.
  S.onWindow(800, 0);
  S.onWindow(800, 0);
  S.onWindow(800, 0);
  EXPECT_EQ(S.level(), 2u);

  // ClearStreak genuinely-healthy windows step the level down one notch.
  S.onWindow(400, 0);
  S.onWindow(400, 0);
  EXPECT_EQ(S.level(), 1u);
  // A mid-band window resets the healthy run.
  S.onWindow(800, 0);
  S.onWindow(400, 0);
  EXPECT_EQ(S.level(), 1u);
  S.onWindow(400, 0);
  EXPECT_EQ(S.level(), 0u);

  // Ups counts actual level changes, so the saturated breach pair at
  // MaxLevel contributes nothing: 0->1 and 1->2 only.
  EXPECT_EQ(S.levelUps(), 2u);
  EXPECT_EQ(S.levelDowns(), 2u);
  EXPECT_GT(S.degradedWindows(), 0u);
}

TEST(ShedController, EmptyWindowCountsAsHealthy) {
  ShedConfig C;
  C.SloP99Ns = 1000;
  C.BreachStreak = 1;
  C.ClearStreak = 1;
  ShedController S(C);
  S.onWindow(5000, 0);
  EXPECT_EQ(S.level(), 1u);
  // An idle service records nothing; p99 == 0 must re-admit, or a fully
  // shed class could never generate the samples that would clear it.
  S.onWindow(0, 0);
  EXPECT_EQ(S.level(), 0u);
}

TEST(ArrivalSchedule, PunctualWorkerSkipsNothing) {
  PoissonProcess Proc(1e6); // mean gap 1000ns
  Xoshiro256StarStar Rng(42);
  ArrivalSchedule S(Proc, 0, Rng, 10);
  uint64_t Prev = 0;
  for (int I = 0; I < 1000; ++I) {
    uint64_t Next = S.nextArrivalNs();
    EXPECT_GT(Next, Prev); // strictly forward: gaps have a 1ns floor
    Prev = Next;
    EXPECT_EQ(S.boundBacklog(Next, Rng), 0u); // on time: two compares
    S.advance(Rng);
  }
  EXPECT_EQ(S.skippedArrivals(), 0u);
}

TEST(ArrivalSchedule, BoundedCatchUpCountsSkipped) {
  PoissonProcess Proc(1e6); // mean gap 1000ns -> bound = 10us
  Xoshiro256StarStar Rng(42);
  ArrivalSchedule S(Proc, 0, Rng, 10);
  const uint64_t Bound = S.backlogBoundNs();
  EXPECT_EQ(Bound, 10'000u);

  // A 1ms stall at a 1us mean gap queues ~1000 arrivals; the bounded
  // catch-up skips all but the last ~10 and *counts* them (never the old
  // silent re-anchor).
  const uint64_t Now = 1'000'000;
  uint64_t Skipped = S.boundBacklog(Now, Rng);
  EXPECT_GT(Skipped, 900u);
  EXPECT_EQ(S.skippedArrivals(), Skipped);
  EXPECT_GE(S.nextArrivalNs(), Now - Bound); // within the catch-up burst
  EXPECT_LT(S.nextArrivalNs(), Now + Bound); // but never re-anchored ahead

  // The surviving backlog is issued late, charged from schedule: the next
  // arrivals are still in the past (the honest tail), not at "now".
  EXPECT_LT(S.nextArrivalNs(), Now);
  EXPECT_EQ(S.boundBacklog(Now, Rng), 0u); // already within bound
}

TEST(ArrivalSchedule, SeededStreamsAreIdentical) {
  PoissonProcess Proc(50'000);
  Xoshiro256StarStar RngA(7), RngB(7);
  ArrivalSchedule A(Proc, 100, RngA, 64), B(Proc, 100, RngB, 64);
  for (int I = 0; I < 500; ++I) {
    EXPECT_EQ(A.nextArrivalNs(), B.nextArrivalNs());
    A.advance(RngA);
    B.advance(RngB);
  }
}

TEST(Backoff, FullJitterStaysInsideDoublingEnvelope) {
  ExpBackoff B(16, 1024, 99);
  int Ceil = 16;
  for (int I = 0; I < 64; ++I) {
    int W = B.nextSpins();
    EXPECT_GE(W, 1);
    EXPECT_LE(W, Ceil); // uniform in [1, Cur]; Cur doubles deterministically
    Ceil = Ceil > 1024 / 2 ? 1024 : Ceil * 2;
  }
}

TEST(Backoff, JitterIsSeededAndResettable) {
  ExpBackoff A(16, 1024, 7);
  ExpBackoff B(16, 1024, 7);
  ExpBackoff C(16, 1024, 8);
  bool Differs = false;
  for (int I = 0; I < 64; ++I) {
    int WA = A.nextSpins();
    EXPECT_EQ(WA, B.nextSpins()); // same seed -> same schedule
    Differs |= WA != C.nextSpins();
  }
  EXPECT_TRUE(Differs); // different seed -> decorrelated schedule

  // reset() returns the ceiling to Min: the next wait is drawn from it.
  A.reset();
  EXPECT_EQ(A.currentSpins(), 16);
  EXPECT_LE(A.nextSpins(), 16);
}

namespace {

stress::ChaosConfig smallCampaign(uint64_t Seed) {
  stress::ChaosConfig C;
  C.Seed = Seed;
  C.DurationNs = 2'000'000'000;
  C.Shards = 8;
  C.MeanGapNs = 100'000'000;
  C.MinEventNs = 20'000'000;
  C.MaxEventNs = 60'000'000;
  return C;
}

} // namespace

TEST(ChaosDirector, ScheduleIsAPureFunctionOfTheSeed) {
  stress::ChaosDirector A(smallCampaign(7));
  stress::ChaosDirector B(smallCampaign(7));
  stress::ChaosDirector C(smallCampaign(8));
  EXPECT_FALSE(A.schedule().empty());
  // Byte-for-byte: the acceptance criterion for replayable campaigns.
  EXPECT_EQ(A.scheduleString(), B.scheduleString());
  EXPECT_NE(A.scheduleString(), C.scheduleString());
}

TEST(ChaosDirector, EventsAreOrderedNonOverlappingAndBounded) {
  stress::ChaosDirector D(smallCampaign(123));
  const std::vector<stress::ChaosEvent> &E = D.schedule();
  ASSERT_FALSE(E.empty());
  uint64_t PrevEnd = 0;
  for (const stress::ChaosEvent &Ev : E) {
    EXPECT_GE(Ev.StartNs, PrevEnd); // one fault at a time by design
    EXPECT_GE(Ev.EndNs, Ev.StartNs);
    EXPECT_LE(Ev.EndNs, smallCampaign(123).DurationNs);
    PrevEnd = Ev.EndNs;
  }
}

TEST(ChaosDirector, KindMaskRestrictsTheCampaign) {
  stress::ChaosConfig C = smallCampaign(5);
  C.KindMask = 1u << static_cast<uint8_t>(stress::FaultKind::SlowShard);
  stress::ChaosDirector D(C);
  ASSERT_FALSE(D.schedule().empty());
  for (const stress::ChaosEvent &Ev : D.schedule()) {
    EXPECT_EQ(Ev.Kind, stress::FaultKind::SlowShard);
    EXPECT_LT(Ev.Param, C.Shards);
    EXPECT_GE(Ev.DelayNs, C.SlowShardDelayNs / 2);
    EXPECT_LE(Ev.DelayNs, C.SlowShardDelayNs / 2 + C.SlowShardDelayNs);
  }
}
