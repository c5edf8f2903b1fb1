//===- support/Distributions.h - Workload sampling distributions *- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two distributions the KV service workload is built from, both
/// deterministic functions of a support/Rng.h stream:
///
///   ZipfianSampler  — skewed key popularity (Gray et al., "Quickly
///                     generating billion-record synthetic databases",
///                     SIGMOD 1994; the YCSB generator uses the same
///                     inversion approximation). O(N) zeta precompute at
///                     construction, O(1) per sample.
///   PoissonProcess  — open-loop arrival schedule: exponential
///                     inter-arrival gaps for a configured offered rate.
///
/// Closed-loop benchmarks (fig12/fig13) issue the next op the instant the
/// previous one returns, so the measured system sets its own arrival rate
/// and queueing delay is invisible. The KV service bench instead samples
/// arrival timestamps from PoissonProcess and charges each request from
/// its *scheduled* arrival, which is what exposes tail latency under load
/// (see DESIGN.md section 15).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_SUPPORT_DISTRIBUTIONS_H
#define SOLERO_SUPPORT_DISTRIBUTIONS_H

#include <cmath>
#include <cstdint>

#include "support/Assert.h"
#include "support/Rng.h"

namespace solero {

/// Zipfian rank sampler over ranks [0, N): rank R is drawn with
/// probability proportional to 1 / (R+1)^Theta. Theta in (0, 1); the
/// YCSB-conventional default 0.99 makes the most popular key draw ~9% of
/// a 100K-key workload.
class ZipfianSampler {
public:
  ZipfianSampler(uint64_t N, double Theta = 0.99) : N(N), Theta(Theta) {
    SOLERO_CHECK(N > 0, "ZipfianSampler over an empty rank space");
    SOLERO_CHECK(Theta > 0.0 && Theta < 1.0,
                 "ZipfianSampler theta outside (0, 1)");
    for (uint64_t I = 0; I < N; ++I)
      ZetaN += 1.0 / std::pow(static_cast<double>(I + 1), Theta);
    Alpha = 1.0 / (1.0 - Theta);
    double Zeta2 = 1.0 + std::pow(0.5, Theta);
    Eta = (1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
          (1.0 - Zeta2 / ZetaN);
  }

  /// Next rank (0 = most popular). Consumes exactly one value of \p Rng,
  /// so streams are reproducible from the seed.
  uint64_t next(Xoshiro256StarStar &Rng) const {
    double U = Rng.nextDouble();
    double Uz = U * ZetaN;
    if (Uz < 1.0)
      return 0;
    if (Uz < 1.0 + std::pow(0.5, Theta))
      return 1;
    uint64_t Rank = static_cast<uint64_t>(
        static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
    return Rank >= N ? N - 1 : Rank;
  }

  /// Next rank mixed through SplitMix64 and folded back into [0, N): the
  /// popular ranks stay popular but land on decorrelated keys, so hot keys
  /// spread across hash-table probe chains and shards instead of
  /// clustering at rank 0, 1, 2... (the YCSB "scrambled zipfian" shape).
  uint64_t nextScrambled(Xoshiro256StarStar &Rng) const {
    SplitMix64 Mix(next(Rng));
    return Mix.next() % N;
  }

  /// Analytic probability of rank \p R (for statistical tests).
  double probabilityOfRank(uint64_t R) const {
    return 1.0 / (std::pow(static_cast<double>(R + 1), Theta) * ZetaN);
  }

  uint64_t rankCount() const { return N; }

private:
  uint64_t N;
  double Theta;
  double ZetaN = 0.0;
  double Alpha = 0.0;
  double Eta = 0.0;
};

/// Exponential inter-arrival gap generator: the arrival schedule of an
/// open-loop Poisson process offering \p RatePerSec events per second.
class PoissonProcess {
public:
  explicit PoissonProcess(double RatePerSec) : MeanGapNs(1e9 / RatePerSec) {
    SOLERO_CHECK(RatePerSec > 0.0, "PoissonProcess with a non-positive rate");
  }

  /// Next inter-arrival gap in nanoseconds (at least 1). Consumes exactly
  /// one value of \p Rng.
  uint64_t nextGapNs(Xoshiro256StarStar &Rng) const {
    // 1 - nextDouble() is in (0, 1]; log of it is finite and <= 0.
    double Gap = -std::log(1.0 - Rng.nextDouble()) * MeanGapNs;
    return Gap < 1.0 ? 1 : static_cast<uint64_t>(Gap);
  }

  double meanGapNs() const { return MeanGapNs; }

private:
  double MeanGapNs;
};

/// Stateful open-loop arrival schedule over a PoissonProcess, with
/// *bounded catch-up* instead of re-anchoring.
///
/// The coordinated-omission hazard: a generator that falls behind (an
/// injected stall, a long GC-like pause, a chaos fault) and silently
/// resets its schedule to "now" erases exactly the queueing delay the
/// open-loop design exists to expose — every request issued after the
/// stall looks punctual. This schedule never re-anchors. Arrivals keep
/// their scheduled timestamps; after a stall the generator issues the
/// backlog as a catch-up burst, each request still charged from its
/// scheduled arrival, so the stall shows up in the tail honestly.
///
/// Unbounded catch-up has its own pathology: a multi-second stall at a
/// high offered rate would queue millions of arrivals and spend the rest
/// of the run draining them. So the backlog is *bounded*: when the
/// schedule falls more than CatchUpBurstMax mean gaps behind "now", the
/// excess arrivals are skipped — sampled through the same RNG stream so
/// determinism holds, and **counted** in skippedArrivals() so the report
/// can say "this generator shed N arrivals" instead of pretending they
/// never existed. The most recent CatchUpBurstMax arrivals always survive
/// to be issued late, which is what keeps the tail honest.
class ArrivalSchedule {
public:
  /// \p StartNs anchors the schedule; the first arrival is one sampled
  /// gap after it. \p CatchUpBurstMax bounds the backlog in *mean gaps*
  /// (approximately: arrivals).
  ArrivalSchedule(const PoissonProcess &Proc, uint64_t StartNs,
                  Xoshiro256StarStar &Rng, uint64_t CatchUpBurstMax)
      : Proc(Proc), Next(StartNs + Proc.nextGapNs(Rng)),
        BacklogBoundNs(static_cast<uint64_t>(
            Proc.meanGapNs() * static_cast<double>(CatchUpBurstMax))) {}

  /// The scheduled timestamp of the next arrival (the time latency is
  /// charged from).
  uint64_t nextArrivalNs() const { return Next; }

  /// Advances past the current arrival by one sampled gap.
  void advance(Xoshiro256StarStar &Rng) { Next += Proc.nextGapNs(Rng); }

  /// Enforces the backlog bound against \p NowNs: skips (and counts)
  /// arrivals until the schedule is within CatchUpBurstMax mean gaps of
  /// now. Returns the number skipped by this call. Call once per
  /// dispatch loop iteration; in the common punctual case it is two
  /// compares.
  uint64_t boundBacklog(uint64_t NowNs, Xoshiro256StarStar &Rng) {
    if (NowNs <= Next || NowNs - Next <= BacklogBoundNs)
      return 0;
    const uint64_t Target = NowNs - BacklogBoundNs;
    uint64_t SkippedNow = 0;
    while (Next < Target) {
      Next += Proc.nextGapNs(Rng);
      ++SkippedNow;
    }
    Skipped += SkippedNow;
    return SkippedNow;
  }

  /// Total arrivals shed by boundBacklog() — the honest ledger of what
  /// the generator could not deliver late.
  uint64_t skippedArrivals() const { return Skipped; }

  uint64_t backlogBoundNs() const { return BacklogBoundNs; }

private:
  const PoissonProcess &Proc;
  uint64_t Next;
  uint64_t BacklogBoundNs;
  uint64_t Skipped = 0;
};

} // namespace solero

#endif // SOLERO_SUPPORT_DISTRIBUTIONS_H
