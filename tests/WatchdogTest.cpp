//===- tests/WatchdogTest.cpp - Stuck-speculation watchdog tests ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Deterministic coverage of the resilience watchdog (DESIGN.md §17):
/// every pathology is injected through the watchdog's virtual-clock
/// pollOnce() entry point (no wall-clock races), and every test closes by
/// driving real traffic through the degraded locks — the contract is
/// forced degradation, never a crash, with recovery left to the
/// protocols' own Reprobe/inhibit machinery.
///
//===----------------------------------------------------------------------===//

#include "resilience/Watchdog.h"

#include "core/SoleroLock.h"
#include "locks/BravoRwLock.h"

#include <gtest/gtest.h>

#include <string>

using namespace solero;
using namespace solero::resilience;

namespace {

RuntimeConfig quietConfig() {
  RuntimeConfig C;
  C.AsyncEventPeriod = std::chrono::microseconds(0);
  return C;
}

/// Tight thresholds so a handful of injected events trips each detector.
WatchdogConfig testConfig() {
  WatchdogConfig C;
  C.StallBoundNs = 1'000'000; // virtual-clock tests pick their own "now"
  C.StormFailures = 100;
  C.StormRatio = 0.8;
  C.RevocationsPerPoll = 8;
  C.BiasInhibitNs = 10'000'000'000; // 10s: re-arming inside a test = bug
  return C;
}

SoleroConfig adaptiveConfig() {
  SoleroConfig C;
  C.Adaptive.Enabled = true;
  return C;
}

/// Small windows so the post-recovery Reprobe path completes in-loop.
SoleroConfig tinyAdaptiveConfig() {
  SoleroConfig C;
  C.Adaptive.Enabled = true;
  C.Adaptive.WindowAttempts = 8;
  C.Adaptive.ReprobeWindow = 4;
  C.Adaptive.DisabledSkipMin = 4;
  C.Adaptive.DisabledSkipMax = 16;
  return C;
}

} // namespace

TEST(Watchdog, StalledSectionForcesDegradation) {
  RuntimeContext Ctx(quietConfig());
  SoleroLock L(Ctx, adaptiveConfig());
  BravoRwLock B(Ctx);
  B.readLock();
  B.readUnlock(); // arm the bias so there is something to revoke
  ASSERT_TRUE(B.readBiased());

  SpeculationWatchdog Wd(testConfig());
  Wd.watchController(&L.controller());
  Wd.watchBravo(&B);

  // An op in flight since t=1000, polled one tick past the stall bound.
  Wd.opBegin(7, 1000);
  Wd.pollOnce(1000 + testConfig().StallBoundNs + 1);

  SpeculationWatchdog::Stats S = Wd.stats();
  EXPECT_EQ(S.StallsDetected, 1u);
  EXPECT_EQ(S.ForcedDisables, 1u);
  EXPECT_EQ(S.ForcedRevocations, 1u);
  EXPECT_EQ(L.controller().state(), ElisionState::Disabled);
  EXPECT_FALSE(B.readBiased());

  std::vector<ResilienceDiagnostic> Diags = Wd.diagnostics();
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Kind, PathologyKind::StalledSection);
  EXPECT_EQ(Diags[0].Slot, 7);
  EXPECT_NE(Diags[0].render().find("StalledSection"), std::string::npos);
  EXPECT_NE(Diags[0].render().find("traffic continues"), std::string::npos);

  // The same stuck section across later polls is one pathology, not one
  // per poll; and a completed op is no pathology at all.
  Wd.pollOnce(1000 + 10 * testConfig().StallBoundNs);
  EXPECT_EQ(Wd.stats().StallsDetected, 1u);
  Wd.opEnd(7);
  Wd.pollOnce(1000 + 20 * testConfig().StallBoundNs);
  EXPECT_EQ(Wd.stats().StallsDetected, 1u);

  // Traffic continues, lock-safe, on the degraded paths: SOLERO reads
  // fall back to holding the flat lock, BRAVO reads take the underlying
  // reader path, and the next writer consumes the deferred drain.
  ObjectHeader H;
  EXPECT_EQ(L.synchronizedReadOnly(H, [](ReadGuard &) { return 41; }), 41);
  L.synchronizedWrite(H, [] {});
  B.writeLock();
  B.writeUnlock();
  B.readLock();
  B.readUnlock();
}

TEST(Watchdog, ElisionFailureStormForcesDisable) {
  RuntimeContext Ctx(quietConfig());
  SoleroLock L(Ctx, adaptiveConfig());
  SpeculationWatchdog Wd(testConfig());
  Wd.watchController(&L.controller());

  Wd.pollOnce(1000); // first poll only establishes the counter baseline
  EXPECT_EQ(Wd.stats().FailureStorms, 0u);

  // Inject a storm: 190 failures out of 200 attempts in one poll window
  // (delta >= StormFailures at a ratio >= StormRatio).
  ThreadState &TS = ThreadRegistry::current();
  TS.Counters.ElisionAttempts += 200;
  TS.Counters.ElisionFailures += 190;
  Wd.pollOnce(2000);
  EXPECT_EQ(Wd.stats().FailureStorms, 1u);
  EXPECT_EQ(L.controller().state(), ElisionState::Disabled);
  ASSERT_EQ(Wd.diagnostics().size(), 1u);
  EXPECT_EQ(Wd.diagnostics()[0].Kind, PathologyKind::ElisionFailureStorm);
  EXPECT_EQ(Wd.diagnostics()[0].ObservedNs, 190u);

  // A quiet poll afterwards detects nothing new.
  Wd.pollOnce(3000);
  EXPECT_EQ(Wd.stats().FailureStorms, 1u);

  // A heavy but mostly-successful window is not a storm.
  TS.Counters.ElisionAttempts += 1000;
  TS.Counters.ElisionFailures += 100; // ratio 0.1 < 0.8
  Wd.pollOnce(4000);
  EXPECT_EQ(Wd.stats().FailureStorms, 1u);
}

TEST(Watchdog, BiasRevocationLivelockForcesInhibit) {
  RuntimeContext Ctx(quietConfig());
  BravoRwLock B(Ctx);
  SpeculationWatchdog Wd(testConfig());
  Wd.watchBravo(&B); // baselines the revocation counter at registration

  // Ping-pong: re-arm the bias (restore is the direct handle; an organic
  // re-arm would take 16 slow reads per round), then revoke it with a
  // writer. Nine rounds beats RevocationsPerPoll = 8.
  for (int I = 0; I < 9; ++I) {
    BravoSnapshot S;
    S.RBias = true;
    S.InhibitRemainingNs = 0;
    S.Revocations = B.revocations();
    ASSERT_TRUE(B.restore(S));
    B.writeLock(); // sees the bias -> full revocation
    B.writeUnlock();
  }
  // Biased *again* at poll time is what distinguishes livelock from a
  // one-off expensive revocation.
  BravoSnapshot S;
  S.RBias = true;
  S.InhibitRemainingNs = 0;
  S.Revocations = B.revocations();
  ASSERT_TRUE(B.restore(S));

  Wd.pollOnce(1000);
  EXPECT_EQ(Wd.stats().RevocationStorms, 1u);
  EXPECT_FALSE(B.readBiased());
  ASSERT_EQ(Wd.diagnostics().size(), 1u);
  EXPECT_EQ(Wd.diagnostics()[0].Kind,
            PathologyKind::BiasRevocationLivelock);

  // forceRevokeBias armed a 10s forced window: slow reads that spend their
  // budget read the clock and refill it, so they must NOT re-arm the bias
  // inside the test.
  for (int I = 0; I < 200; ++I) {
    B.readLock();
    B.readUnlock();
  }
  EXPECT_FALSE(B.readBiased());
  // And traffic continues on the unbiased path, writers included.
  B.writeLock();
  B.writeUnlock();
}

TEST(Watchdog, ForcedDisableRecoversThroughReprobe) {
  RuntimeContext Ctx(quietConfig());
  SoleroLock L(Ctx, tinyAdaptiveConfig());
  ObjectHeader H;

  L.controller().forceDisable();
  ASSERT_EQ(L.controller().state(), ElisionState::Disabled);

  // Recovery is the controller's own machinery, not the watchdog's: the
  // full Disabled skip budget drains, Reprobe samples clean attempts, and
  // the lock re-enables itself.
  bool Reenabled = false;
  for (int I = 0; I < 512; ++I) {
    L.synchronizedReadOnly(H, [](ReadGuard &) { return 0; });
    if (L.controller().state() == ElisionState::Elide) {
      Reenabled = true;
      break;
    }
  }
  EXPECT_TRUE(Reenabled);
}
