//===- core/ElisionController.h - Adaptive elision policy -------*- C++ -*-===//
//
// Part of the SOLERO reproduction of Nakaike & Michael, "Lock Elision for
// Read-Only Critical Sections in Java", PLDI 2010.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Failure-ratio-driven speculation policy for SOLERO read-only sections.
///
/// The paper's fixed policy (one speculative attempt, unconditional
/// fallback) makes elision pure overhead in write-heavy phases: every read
/// section pays the entry fence, a doomed speculative execution, and the
/// real acquisition on top (Figure 15 shows the win collapsing as the
/// failure ratio rises). Following the adaptive-bias recipe of BRAVO and
/// Fissile locks (Dice & Kogan), each lock carries an ElisionStats cell —
/// relaxed counters over an exponentially decayed window — and one on/off
/// decision with a re-probe:
///
///   Elide      speculate once, fall back on failure (the fast path)
///   Disabled   ratio crossed the disable threshold: skip speculation and
///              acquire the lock directly for the next N sections, N
///              growing exponentially while re-probes keep failing
///   Reprobe    the skip budget expired: sample a few speculations; cheap
///              re-enables when a write phase ends
///
/// Elide-state windows live in the calling thread (ThreadState) and the
/// Disabled skip budget is drawn down in chunks into a thread-local
/// allowance, so neither per-section fast path performs an atomic RMW;
/// the shared cell holds the state machine plus the pooled Reprobe
/// sample window. Everything shared is relaxed atomics
/// and every transition tolerates races: a stale read at worst delays a
/// transition by one window, never breaks the protocol (the decision only
/// selects between two correct paths).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_CORE_ELISIONCONTROLLER_H
#define SOLERO_CORE_ELISIONCONTROLLER_H

#include <atomic>
#include <cstdint>

#include "runtime/ThreadRegistry.h"
#include "support/CacheLine.h"

namespace solero {

/// Controller policy states. Numeric values are stable: warm images store
/// them. 1 belonged to a retired state and is rejected on restore.
enum class ElisionState : uint32_t {
  Elide = 0,
  Disabled = 2,
  Reprobe = 3,
};

/// Human-readable state name ("Elide", ...).
const char *elisionStateName(ElisionState S);

/// Tuning knobs for the adaptive controller. Defaults are deliberately
/// conservative: a lock whose speculation keeps succeeding never leaves
/// Elide and pays only the window bookkeeping.
struct AdaptiveElisionConfig {
  /// Master switch. Off reproduces the paper's fixed policy exactly
  /// (one attempt, immediate fallback, no bookkeeping).
  bool Enabled = false;
  /// Speculative attempts per decay window; when the window fills, the
  /// failure ratio is evaluated and both counters are halved so old
  /// history fades with an exponential half-life.
  uint32_t WindowAttempts = 64;
  /// Ratio at or above which speculation is disabled outright. Breakeven
  /// sits where a doomed speculative execution per failure outweighs the
  /// speculation wins of the successes forfeited by skipping.
  double DisableRatio = 0.60;
  /// Ratio at or below which a Reprobe window is judged healthy enough to
  /// re-enable elision, and an Elide window resets the skip-budget growth.
  double ReenableRatio = 0.25;
  /// Speculative samples taken in Reprobe before judging the ratio.
  uint32_t ReprobeWindow = 8;
  /// Read sections that skip speculation after the first disable; doubles
  /// on every failed re-probe up to DisabledSkipMax (bounded exponential
  /// backoff at the policy level).
  uint32_t DisabledSkipMin = 64;
  uint32_t DisabledSkipMax = 8192;
};

/// A quiesced copy of one controller's stats cell: the learned policy state
/// a warm image stores (image/Resources.h writeControllerState). Field
/// layout is part of the image format: extend only by appending (and bump
/// image::ImageVersion).
struct ElisionSnapshot {
  uint32_t State = 0;    ///< ElisionState, as its numeric value
  uint32_t Attempts = 0; ///< decayed-window attempt count
  uint32_t Failures = 0; ///< decayed-window failure count
  int32_t Skip = 0;      ///< remaining Disabled skip budget
  int32_t ReprobeLeft = 0;
  uint32_t SkipWindow = 0; ///< next disable's skip budget
};

/// Per-lock adaptive policy. Embedded in each SoleroLock; thread-safe,
/// wait-free, and inert (never touched) unless the config enables it.
class ElisionController {
public:
  explicit ElisionController(const AdaptiveElisionConfig &Cfg)
      : Cfg(Cfg),
        SkipChunk(Cfg.DisabledSkipMin / 8 ? Cfg.DisabledSkipMin / 8 : 1) {
    // SkipWindow is seeded here AND re-seeded by restore(): historically it
    // was constructor-only, which left a restored Disabled/Reprobe lock
    // with whatever the image held — including 0 from a zero-initialized
    // cell — and forced the cold-start path to repair it. disable() keeps
    // a 0 -> DisabledSkipMin guard as defense in depth.
    Stats.SkipWindow.store(Cfg.DisabledSkipMin, std::memory_order_relaxed);
  }

  /// Consulted once per read-only section entry; returns the state the
  /// section's decision is made in. Disabled means skip speculation and
  /// acquire for real; Elide and Reprobe mean speculate once. In Disabled
  /// this burns one unit of skip budget and flips to Reprobe when it runs
  /// out. Only the Elide check lives inline; everything else is off the
  /// fast path.
  ElisionState beginRead(ThreadState &TS) {
    ElisionState St = state();
    if (St == ElisionState::Elide) [[likely]]
      return St;
    return beginReadSlow(TS, St);
  }

  /// Reports one speculative execution's outcome, made under the state
  /// \p St that beginRead returned. Evaluates the window when full.
  ///
  /// Elide-state windows are thread-local: the hot path performs no
  /// atomic RMW, and the shared cell is not touched at all. The armed
  /// latch is `TS.ElisionCtrlKey == this`: until this thread's first
  /// failure on this lock, a clean section costs one thread-local compare
  /// (a lock whose speculation never fails has nothing to adapt to). Each
  /// thread judges transitions on its own decayed window, so threads
  /// react independently; that skew is benign because the shared state
  /// machine every beginRead consults is still the single source of
  /// policy. Reprobe sections account in the shared cell — they are rare
  /// by construction, and their window (which gates re-enabling) must pool
  /// all threads' evidence.
  void recordOutcome(ThreadState &TS, ElisionState St, bool Failed) {
    if (St == ElisionState::Elide) [[likely]] {
      if (TS.ElisionCtrlKey != this) {
        if (!Failed) [[likely]]
          return; // not armed for this lock; nothing worth tracking yet
        // First failure this thread has seen on this lock: arm, starting
        // a fresh window. Whatever the fields held belonged to another
        // lock (the old key may even dangle — it is never dereferenced).
        TS.ElisionCtrlKey = this;
        TS.LocalElisionAttempts = 0;
        TS.LocalElisionFailures = 0;
        TS.ElisionSkipAllowance = 0;
      }
      ++TS.LocalElisionAttempts;
      TS.LocalElisionFailures += Failed ? 1 : 0;
      if (TS.LocalElisionAttempts >= Cfg.WindowAttempts)
        evaluateLocalWindow(TS);
      return;
    }
    recordReprobe(TS, Failed);
  }

  ElisionState state() const {
    return static_cast<ElisionState>(
        Stats.State.load(std::memory_order_relaxed));
  }

  const AdaptiveElisionConfig &config() const { return Cfg; }

  /// Remaining skip budget (Disabled) — exposed for tests and benches.
  int32_t skipBudget() const {
    return Stats.Skip.load(std::memory_order_relaxed);
  }

  /// The skip budget the *next* disable will charge (tests/restore).
  uint32_t skipWindow() const {
    return Stats.SkipWindow.load(std::memory_order_relaxed);
  }

  /// Captures the shared stats cell for a warm image. All fields are
  /// relaxed atomics, so concurrent readers are safe; for a *consistent*
  /// capture the caller must quiesce the lock (no read section between
  /// beginRead and recordOutcome), or fields snapshotted at different
  /// instants may disagree by one transition. Thread-local Elide windows
  /// (ThreadState) are deliberately not captured: they are per-process
  /// scratch that rebuilds within one WindowAttempts window.
  ElisionSnapshot snapshot() const;

  /// Rehydrates the cell from \p S. Requires quiescence (see snapshot()).
  /// Returns false — leaving the cell in its cold state — when \p S is
  /// inconsistent (unknown state, failures exceeding attempts); repairable
  /// skew (zero or out-of-range windows, exhausted budgets) is clamped
  /// into the config's bounds instead, so an image captured under a
  /// different tuning still restores. After a successful restore the lock
  /// resumes exactly where the image left it: a Disabled lock keeps
  /// skipping without re-running the cold Elide->...->disable path, a
  /// Reprobe lock finishes its sample window.
  bool restore(const ElisionSnapshot &S);

private:
  ElisionState beginReadSlow(ThreadState &TS, ElisionState St);
  void recordReprobe(ThreadState &TS, bool Failed);
  void evaluateLocalWindow(ThreadState &TS);
  void finishReprobe(ThreadState &TS, uint32_t A, uint32_t F);
  void disable(ThreadState &TS);

  /// The per-lock stats cell: one cache line so controller traffic never
  /// false-shares with neighbouring locks, and the lock word itself (in
  /// the object header) stays clean for speculation validation.
  struct alignas(CacheLineSize) ElisionStatsCell {
    std::atomic<uint32_t> State{static_cast<uint32_t>(ElisionState::Elide)};
    std::atomic<uint32_t> Attempts{0}; ///< decayed-window attempt count
    std::atomic<uint32_t> Failures{0}; ///< decayed-window failure count
    std::atomic<int32_t> Skip{0};      ///< remaining Disabled skip budget
    std::atomic<int32_t> ReprobeLeft{0};
    std::atomic<uint32_t> SkipWindow{0}; ///< next disable's skip budget
  };

  AdaptiveElisionConfig Cfg;
  uint32_t SkipChunk; ///< Disabled budget draw-down granularity (SkipMin/8)
  ElisionStatsCell Stats;
};

} // namespace solero

#endif // SOLERO_CORE_ELISIONCONTROLLER_H
