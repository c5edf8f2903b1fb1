//===- support/Backoff.h - Spin-wait backoff --------------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CPU-relax and yield primitives used by the three-tier locking scheme
/// (paper Figure 3). The innermost tier wastes cycles with cpuRelax(), the
/// outermost yields the processor.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_SUPPORT_BACKOFF_H
#define SOLERO_SUPPORT_BACKOFF_H

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "support/Rng.h"

namespace solero {

/// Hints the CPU that the caller is spin-waiting.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

/// Yields the processor to the OS scheduler (tier 3 of the three-tier
/// scheme). Essential on machines with fewer cores than runnable threads.
inline void osYield() { std::this_thread::yield(); }

/// Tuning knobs for the three-tier contention loop of paper Figure 3.
/// Tier1: busy-wait iterations between acquisition attempts.
/// Tier2: acquisition attempts between yields.
/// Tier3: yields before giving up and inflating the lock.
struct SpinTiers {
  int Tier1 = 64;
  int Tier2 = 16;
  int Tier3 = 8;
};

/// Executes the tier-1 busy-wait loop.
inline void spinTier1(int Iterations) {
  for (int I = 0; I < Iterations; ++I)
    cpuRelax();
}

/// How ExpBackoff spreads its waits. Deterministic doubling synchronizes:
/// N clients that collided once will wake together, collide again, and
/// double together — a retry wave that never decorrelates. The jittered
/// modes (AWS Architecture Blog, "Exponential backoff and jitter",
/// Brooker 2015) break the lockstep:
///
///   None          — classic doubling; the pre-existing behavior and the
///                   default, so lock-internal call sites stay untouched.
///   FullJitter    — sleep = uniform[1, Cur]; Cur still doubles. Best
///                   spread, at the cost of occasionally near-zero waits.
enum class JitterMode : uint8_t { None, FullJitter };

/// Bounded exponential backoff for optimistic-retry loops (the BRAVO /
/// Fissile-lock recipe): each pause() busy-waits twice as long as the
/// previous one, clamped to [MinSpins, MaxSpins] cpuRelax() iterations.
/// Used by the adaptive elision controller between speculation retries so
/// a conflicting writer gets a widening window to drain before the reader
/// burns another failed attempt, and by the KV service retry budget with
/// jitter enabled so shed-then-retried requests cannot self-synchronize.
class ExpBackoff {
public:
  explicit ExpBackoff(int MinSpins = 16, int MaxSpins = 1024,
                      JitterMode Jitter = JitterMode::None,
                      uint64_t Seed = 0x9E3779B97F4A7C15ull)
      : Min(MinSpins < 1 ? 1 : MinSpins),
        Max(MaxSpins < Min ? Min : MaxSpins), Cur(Min), Jitter(Jitter),
        Rng(Seed) {}

  /// Busy-waits for the mode's current interval, then advances the state
  /// (saturating at Max).
  void pause() { spinTier1(nextSpins()); }

  /// The wait the next pause() would perform, advancing the backoff state
  /// exactly as pause() would. Exposed so callers that wait by sleeping or
  /// parking (rather than spinning) — and the jitter-bounds unit tests —
  /// can consume the same schedule.
  int nextSpins() {
    int Wait = Cur;
    switch (Jitter) {
    case JitterMode::None:
      Cur = Cur > Max / 2 ? Max : Cur * 2;
      break;
    case JitterMode::FullJitter:
      // Uniform in [1, Cur]; the deterministic ceiling keeps doubling.
      Wait = 1 + static_cast<int>(Rng.nextBounded(static_cast<uint64_t>(Cur)));
      Cur = Cur > Max / 2 ? Max : Cur * 2;
      break;
    }
    return Wait;
  }

  /// Returns to the minimum interval (call after a success).
  void reset() { Cur = Min; }

  /// The deterministic backoff state (the FullJitter ceiling). For
  /// JitterMode::None this is exactly the spin count the next pause()
  /// will use.
  int currentSpins() const { return Cur; }

  JitterMode jitterMode() const { return Jitter; }
  int minSpins() const { return Min; }
  int maxSpins() const { return Max; }

private:
  int Min;
  int Max;
  int Cur;
  JitterMode Jitter;
  Xoshiro256StarStar Rng;
};

} // namespace solero

#endif // SOLERO_SUPPORT_BACKOFF_H
