//===- core/ElisionController.cpp - Adaptive elision policy ---------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "core/ElisionController.h"

using namespace solero;

const char *solero::elisionStateName(ElisionState S) {
  switch (S) {
  case ElisionState::Elide:
    return "Elide";
  case ElisionState::Disabled:
    return "Disabled";
  case ElisionState::Reprobe:
    return "Reprobe";
  }
  return "?";
}

ElisionSnapshot ElisionController::snapshot() const {
  ElisionSnapshot S;
  S.State = Stats.State.load(std::memory_order_relaxed);
  S.Attempts = Stats.Attempts.load(std::memory_order_relaxed);
  S.Failures = Stats.Failures.load(std::memory_order_relaxed);
  S.Skip = Stats.Skip.load(std::memory_order_relaxed);
  S.ReprobeLeft = Stats.ReprobeLeft.load(std::memory_order_relaxed);
  S.SkipWindow = Stats.SkipWindow.load(std::memory_order_relaxed);
  return S;
}

bool ElisionController::restore(const ElisionSnapshot &S) {
  auto St = static_cast<ElisionState>(S.State);
  if (St != ElisionState::Elide && St != ElisionState::Disabled &&
      St != ElisionState::Reprobe)
    return false; // unknown state: unusable image, stay cold
  // Failures > Attempts cannot arise from any transition sequence; treat
  // it as corruption rather than guessing which counter to trust.
  if (S.Failures > S.Attempts)
    return false;
  uint32_t Window = S.SkipWindow;
  if (Window < Cfg.DisabledSkipMin)
    Window = Cfg.DisabledSkipMin; // covers 0 from pre-seeding-fix images
  if (Window > Cfg.DisabledSkipMax)
    Window = Cfg.DisabledSkipMax;
  int32_t Skip = S.Skip;
  int32_t ReprobeLeft = S.ReprobeLeft;
  if (St == ElisionState::Disabled && Skip < 1)
    // A budget captured mid-exhaustion (or negative from the chunked
    // draw-down) would flip to Reprobe on the first section with an empty
    // sample window; give the restored lock one full chunk instead.
    Skip = static_cast<int32_t>(SkipChunk);
  if (St == ElisionState::Reprobe) {
    if (ReprobeLeft < 1)
      ReprobeLeft = 1;
    if (ReprobeLeft > static_cast<int32_t>(Cfg.ReprobeWindow))
      ReprobeLeft = static_cast<int32_t>(Cfg.ReprobeWindow);
  }
  Stats.Attempts.store(S.Attempts, std::memory_order_relaxed);
  Stats.Failures.store(S.Failures, std::memory_order_relaxed);
  Stats.Skip.store(Skip, std::memory_order_relaxed);
  Stats.ReprobeLeft.store(ReprobeLeft, std::memory_order_relaxed);
  Stats.SkipWindow.store(Window, std::memory_order_relaxed);
  // State last: a concurrent beginRead (which the quiesce protocol
  // forbids, but code should still fail soft) keys every slow-path
  // decision off State and would otherwise see the new state over stale
  // budgets.
  Stats.State.store(S.State, std::memory_order_relaxed);
  return true;
}

ElisionState ElisionController::beginReadSlow(ThreadState &TS,
                                             ElisionState St) {
  if (St == ElisionState::Reprobe)
    return St;
  // Disabled: consume the thread's local allowance if it has one; the
  // shared budget is drawn down SkipChunk sections at a time so the skip
  // path, like the clean path, costs no atomic RMW per section. (A stale
  // allowance after a state flip skips at most SkipChunk-1 extra sections
  // — the re-probe cadence is approximate by design.)
  if (TS.ElisionCtrlKey == this && TS.ElisionSkipAllowance != 0) {
    --TS.ElisionSkipAllowance;
    return ElisionState::Disabled;
  }
  if (Stats.Skip.fetch_sub(static_cast<int32_t>(SkipChunk),
                           std::memory_order_relaxed) <=
      static_cast<int32_t>(SkipChunk)) {
    // Budget exhausted: this thread opens the re-probe window. Races here
    // are benign — a second thread repeating the transition only restarts
    // the (already empty) sample window.
    Stats.Attempts.store(0, std::memory_order_relaxed);
    Stats.Failures.store(0, std::memory_order_relaxed);
    Stats.ReprobeLeft.store(static_cast<int32_t>(Cfg.ReprobeWindow),
                            std::memory_order_relaxed);
    Stats.State.store(static_cast<uint32_t>(ElisionState::Reprobe),
                      std::memory_order_relaxed);
    ++TS.Counters.CtrlReprobes;
    return ElisionState::Reprobe;
  }
  TS.ElisionCtrlKey = this;
  TS.ElisionSkipAllowance = SkipChunk - 1;
  return ElisionState::Disabled;
}

void ElisionController::recordReprobe(ThreadState &TS, bool Failed) {
  uint32_t A = Stats.Attempts.fetch_add(1, std::memory_order_relaxed) + 1;
  uint32_t F = Failed
                   ? Stats.Failures.fetch_add(1, std::memory_order_relaxed) + 1
                   : Stats.Failures.load(std::memory_order_relaxed);
  if (Stats.ReprobeLeft.fetch_sub(1, std::memory_order_relaxed) <= 1)
    finishReprobe(TS, A, F);
}

void ElisionController::evaluateLocalWindow(ThreadState &TS) {
  uint32_t A = TS.LocalElisionAttempts;
  uint32_t F = TS.LocalElisionFailures;
  if (state() != ElisionState::Elide) {
    // The shared machine moved on (another thread disabled meanwhile):
    // this window was collected under stale Elide decisions.
    TS.LocalElisionAttempts = 0;
    TS.LocalElisionFailures = 0;
    return;
  }
  double Ratio = static_cast<double>(F) / static_cast<double>(A);
  if (Ratio >= Cfg.DisableRatio) {
    disable(TS);
    TS.LocalElisionAttempts = 0;
    TS.LocalElisionFailures = 0;
    return;
  }
  if (Ratio <= Cfg.ReenableRatio)
    // Healthy window: forget the skip-budget growth of past bad phases.
    Stats.SkipWindow.store(Cfg.DisabledSkipMin, std::memory_order_relaxed);
  // Exponential decay: halve both counters so each new window carries
  // twice the weight of the one before it.
  TS.LocalElisionAttempts = A / 2;
  TS.LocalElisionFailures = F / 2;
}

void ElisionController::finishReprobe(ThreadState &TS, uint32_t A,
                                      uint32_t F) {
  if (state() != ElisionState::Reprobe)
    return; // another thread already closed this re-probe window
  double Ratio = static_cast<double>(F) / static_cast<double>(A);
  if (Ratio <= Cfg.ReenableRatio) {
    Stats.Attempts.store(0, std::memory_order_relaxed);
    Stats.Failures.store(0, std::memory_order_relaxed);
    Stats.SkipWindow.store(Cfg.DisabledSkipMin, std::memory_order_relaxed);
    Stats.State.store(static_cast<uint32_t>(ElisionState::Elide),
                      std::memory_order_relaxed);
    ++TS.Counters.CtrlReenables;
    return;
  }
  disable(TS); // still failing: back off for a longer skip window
}

void ElisionController::disable(ThreadState &TS) {
  uint32_t W = Stats.SkipWindow.load(std::memory_order_relaxed);
  if (W == 0)
    W = Cfg.DisabledSkipMin;
  Stats.Skip.store(static_cast<int32_t>(W), std::memory_order_relaxed);
  Stats.SkipWindow.store(W > Cfg.DisabledSkipMax / 2 ? Cfg.DisabledSkipMax
                                                     : W * 2,
                         std::memory_order_relaxed);
  Stats.Attempts.store(0, std::memory_order_relaxed);
  Stats.Failures.store(0, std::memory_order_relaxed);
  Stats.State.store(static_cast<uint32_t>(ElisionState::Disabled),
                    std::memory_order_relaxed);
  ++TS.Counters.CtrlDisables;
}
