//===- tests/AdaptiveElisionTest.cpp - Adaptive elision controller --------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Exercises the failure-ratio-driven speculation policy
/// (core/ElisionController.h): the Elide -> Disabled -> Reprobe machine
/// under a deterministic forced-failure workload, the skip-budget backoff,
/// and the one-attempt speculation budget.
///
/// The forced-failure trick: a write section on the same lock *inside* the
/// read-only body. On a speculative execution the inner write bumps the
/// lock-word counter, so the outer validation is guaranteed to fail; on
/// the fallback (holding) execution it is a plain recursive acquisition.
///
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"

#include "runtime/SharedField.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

using namespace solero;

namespace {

/// Tiny windows so transitions happen within a handful of sections.
AdaptiveElisionConfig tinyAdaptive() {
  AdaptiveElisionConfig A;
  A.Enabled = true;
  A.WindowAttempts = 8;
  A.DisableRatio = 0.60;
  A.ReenableRatio = 0.20;
  A.ReprobeWindow = 4;
  A.DisabledSkipMin = 4;
  A.DisabledSkipMax = 16;
  return A;
}

SoleroConfig tinyAdaptiveConfig() {
  SoleroConfig C;
  C.Adaptive = tinyAdaptive();
  return C;
}

class AdaptiveElisionTest : public ::testing::Test {
protected:
  AdaptiveElisionTest() : Ctx(quietConfig()), L(Ctx, tinyAdaptiveConfig()) {
    snap();
  }

  /// A section whose speculation always fails (see file comment).
  int64_t failingSection() {
    return L.synchronizedReadOnly(H, [&](ReadGuard &) {
      L.synchronizedWrite(H, [] {});
      return Data.read();
    });
  }

  /// A section whose speculation always succeeds.
  int64_t succeedingSection() {
    return L.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  }

  ProtocolCounters delta() const {
    ProtocolCounters D = ThreadRegistry::instance().totalCounters();
    D -= Base;
    return D;
  }
  void snap() { Base = ThreadRegistry::instance().totalCounters(); }

  ElisionState state() { return L.controller().state(); }

  RuntimeContext Ctx;
  SoleroLock L;
  ObjectHeader H;
  SharedField<int64_t> Data{42};
  ProtocolCounters Base;
};

} // namespace

TEST_F(AdaptiveElisionTest, StartsInElideAndStaysThereOnSuccess) {
  EXPECT_EQ(state(), ElisionState::Elide);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(succeedingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionSuccesses, 100u);
  EXPECT_EQ(D.ElisionSkips, 0u);
  EXPECT_EQ(D.CtrlDisables, 0u);
}

TEST_F(AdaptiveElisionTest, ForcedFailuresDisableElision) {
  // One full window of guaranteed failures: ratio 1.0 >= DisableRatio.
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(failingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Disabled);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionFailures, 8u);
  EXPECT_EQ(D.Fallbacks, 8u);
  EXPECT_EQ(D.CtrlDisables, 1u);
  EXPECT_EQ(D.ElisionSkips, 0u);

  // While Disabled, sections skip speculation entirely — no attempts, the
  // data still reads correctly under the real lock.
  snap();
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(succeedingSection(), 42);
  D = delta();
  EXPECT_EQ(D.ElisionSkips, 3u);
  EXPECT_EQ(D.ElisionAttempts, 0u);
  EXPECT_EQ(state(), ElisionState::Disabled);
}

TEST_F(AdaptiveElisionTest, ReprobeReenablesWhenFailuresStop) {
  for (int I = 0; I < 8; ++I)
    failingSection();
  ASSERT_EQ(state(), ElisionState::Disabled);

  // Burn the skip budget (DisabledSkipMin = 4: three skips, then the
  // fourth entry opens the re-probe window), then let the 4-sample
  // re-probe succeed.
  snap();
  for (int I = 0; I < 7; ++I)
    EXPECT_EQ(succeedingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionSkips, 3u);
  EXPECT_EQ(D.CtrlReprobes, 1u);
  EXPECT_EQ(D.ReprobeAttempts, 4u);
  EXPECT_EQ(D.CtrlReenables, 1u);
}

TEST_F(AdaptiveElisionTest, FailedReprobeBacksOffExponentially) {
  for (int I = 0; I < 8; ++I)
    failingSection();
  ASSERT_EQ(state(), ElisionState::Disabled);

  // Keep failing through the skip budget (3 skips) and the whole re-probe
  // window (4 samples): the controller must disable again with a doubled
  // skip budget (DisabledSkipMin 4 -> 8).
  snap();
  for (int I = 0; I < 7; ++I)
    failingSection();
  EXPECT_EQ(state(), ElisionState::Disabled);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.CtrlReprobes, 1u);
  EXPECT_EQ(D.CtrlDisables, 1u);
  EXPECT_EQ(L.controller().skipBudget(), 8);
}

TEST_F(AdaptiveElisionTest, MidRatioStaysElideDisableRatioDisables) {
  // 3 failures + 5 successes fill the window at ratio 0.375: below
  // DisableRatio (0.60), so the lock keeps speculating, one attempt each.
  for (int I = 0; I < 3; ++I)
    failingSection();
  for (int I = 0; I < 5; ++I)
    succeedingSection();
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 8u);
  EXPECT_EQ(D.CtrlDisables, 0u);

  // A window at exactly DisableRatio disables: 3 failures + 2 successes
  // fill a 5-attempt window at ratio 0.6.
  SoleroConfig C = tinyAdaptiveConfig();
  C.Adaptive.WindowAttempts = 5;
  SoleroLock L5(Ctx, C);
  snap();
  for (int I = 0; I < 3; ++I)
    L5.synchronizedReadOnly(H, [&](ReadGuard &) {
      L5.synchronizedWrite(H, [] {});
      return 0;
    });
  for (int I = 0; I < 2; ++I)
    L5.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  EXPECT_EQ(L5.controller().state(), ElisionState::Disabled);
  EXPECT_EQ(delta().CtrlDisables, 1u);
}

TEST_F(AdaptiveElisionTest, FailedValidationMakesOneAttemptThenFallsBack) {
  // An Elide section whose validation fails speculates exactly once, then
  // acquires the lock for real: there is no retry budget.
  EXPECT_EQ(failingSection(), 42);
  EXPECT_EQ(state(), ElisionState::Elide);
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 1u);
  EXPECT_EQ(D.ElisionFailures, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);
  EXPECT_EQ(D.SpecRetries, 0u);
}

TEST_F(AdaptiveElisionTest, AdaptiveOffReproducesFixedPaperPolicy) {
  SoleroLock Fixed(Ctx); // default config: controller off, 1 attempt
  snap();
  Fixed.synchronizedReadOnly(H, [&](ReadGuard &) {
    Fixed.synchronizedWrite(H, [] {});
    return 0;
  });
  ProtocolCounters D = delta();
  EXPECT_EQ(D.ElisionAttempts, 1u);
  EXPECT_EQ(D.ElisionFailures, 1u);
  EXPECT_EQ(D.Fallbacks, 1u);
  EXPECT_EQ(D.ElisionSkips, 0u);
  EXPECT_EQ(D.SpecRetries, 0u);
  EXPECT_EQ(D.CtrlDisables + D.CtrlReprobes, 0u);
  EXPECT_EQ(Fixed.controller().state(), ElisionState::Elide);
}

TEST_F(AdaptiveElisionTest, ReadMostlySectionsFeedTheController) {
  // The read-mostly engine consults the same controller: forced upgrade
  // conflicts disable speculation there too. An upgrade CAS fails when
  // the recorded entry word is stale; force that with the same inner
  // write before acquireForWrite.
  for (int I = 0; I < 8; ++I)
    L.synchronizedReadMostly(H, [&](WriteIntent &W) {
      if (!W.holding())
        L.synchronizedWrite(H, [] {}); // invalidates the recorded word
      W.acquireForWrite();
      return 0;
    });
  EXPECT_EQ(state(), ElisionState::Disabled);
  snap();
  L.synchronizedReadMostly(H, [&](WriteIntent &W) {
    EXPECT_TRUE(W.holding()); // Disabled: entered holding the real lock
    return 0;
  });
  EXPECT_EQ(delta().ElisionSkips, 1u);
}

TEST_F(AdaptiveElisionTest, StateNamesAreStable) {
  EXPECT_STREQ(elisionStateName(ElisionState::Elide), "Elide");
  EXPECT_STREQ(elisionStateName(ElisionState::Disabled), "Disabled");
  EXPECT_STREQ(elisionStateName(ElisionState::Reprobe), "Reprobe");
}
