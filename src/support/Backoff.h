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

/// Bounded exponential backoff with full jitter for retry loops: each
/// wait is uniform in [1, Cur], and the ceiling Cur doubles per wait,
/// clamped to [MinSpins, MaxSpins]. Deterministic doubling would
/// synchronize: N clients that collided once would wake together, collide
/// again, and double together — a retry wave that never decorrelates. Full
/// jitter (AWS Architecture Blog, "Exponential backoff and jitter", Brooker
/// 2015) breaks the lockstep, at the cost of occasionally near-zero waits.
/// The KV service's retry budget draws its retry delays from it, so
/// shed-then-retried requests cannot self-synchronize.
class ExpBackoff {
public:
  ExpBackoff(int MinSpins, int MaxSpins, uint64_t Seed = 0x9E3779B97F4A7C15ull)
      : Min(MinSpins < 1 ? 1 : MinSpins),
        Max(MaxSpins < Min ? Min : MaxSpins), Cur(Min), Rng(Seed) {}

  /// The next wait, in spins (callers that sleep or park pick their own
  /// unit), then advances the ceiling (saturating at Max).
  int nextSpins() {
    int Wait =
        1 + static_cast<int>(Rng.nextBounded(static_cast<uint64_t>(Cur)));
    Cur = Cur > Max / 2 ? Max : Cur * 2;
    return Wait;
  }

  /// Returns the ceiling to the minimum interval (call after a success).
  void reset() { Cur = Min; }

  /// The current ceiling: the largest wait the next nextSpins() can draw.
  int currentSpins() const { return Cur; }

private:
  int Min;
  int Max;
  int Cur;
  Xoshiro256StarStar Rng;
};

} // namespace solero

#endif // SOLERO_SUPPORT_BACKOFF_H
