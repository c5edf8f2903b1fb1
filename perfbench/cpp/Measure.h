//===- perfbench/cpp/Measure.h - Timer, latency histogram, stats -*- C++ -*-===//
///
/// \file
/// Measurement primitives of the benchmark:
///
///  - a cycle-counter clock (rdtsc on x86-64, steady_clock elsewhere) whose
///    tick rate is calibrated against steady_clock over each run, so short
///    sections are timed at sub-nanosecond resolution with no syscall;
///  - a per-thread tick histogram: exact below ExactTicks, then 1/128-octave
///    buckets, so p50/p99 of point operations are exact tick counts;
///  - the percentile rule: a tail percentile is reported only when at least
///    ten samples lie beyond it;
///  - the median used to combine rounds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/// Raw timestamp in clock ticks.
inline uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Tick-rate calibration: a (ticks, ns) pair at construction and another at
/// finish(); ticksPerNs() is their ratio.
class TickCalibration {
public:
  TickCalibration() : T0(ticks()), N0(steadyNs()) {}
  void finish() {
    T1 = ticks();
    N1 = steadyNs();
  }
  double ticksPerNs() const {
    return N1 > N0 ? static_cast<double>(T1 - T0) / static_cast<double>(N1 - N0)
                   : 1.0;
  }

private:
  uint64_t T0, N0;
  uint64_t T1 = 0, N1 = 0;
};

/// Latency histogram in ticks, owned and written by one thread and read
/// after that thread has stopped recording.
class TickHistogram {
public:
  static constexpr uint64_t ExactTicks = 4096;
  static constexpr unsigned SubBits = 7;
  static constexpr unsigned ExactBits = 12; // log2(ExactTicks)
  static constexpr std::size_t BucketCount =
      ExactTicks + (64 - ExactBits) * (std::size_t(1) << SubBits);

  TickHistogram() : Buckets(BucketCount, 0) {}

  void record(uint64_t T) {
    ++Buckets[bucketIndex(T)];
    ++N;
    if (T > Max)
      Max = T;
  }

  void merge(const TickHistogram &O) {
    for (std::size_t I = 0; I < BucketCount; ++I)
      Buckets[I] += O.Buckets[I];
    N += O.N;
    Max = std::max(Max, O.Max);
  }

  void reset() {
    std::fill(Buckets.begin(), Buckets.end(), 0);
    N = 0;
    Max = 0;
  }

  uint64_t count() const { return N; }
  uint64_t max() const { return Max; }

  /// Nearest-rank percentile \p P in [0, 100]: the smallest recorded value
  /// (bucket lower bound above ExactTicks) with at least ceil(P/100 * N)
  /// samples at or below it. 0 on an empty histogram.
  uint64_t percentile(double P) const {
    if (N == 0)
      return 0;
    // The epsilon keeps e.g. 99.9% of 1000 at rank 999 despite rounding.
    uint64_t Rank =
        static_cast<uint64_t>(std::ceil(P / 100.0 * double(N) - 1e-9));
    Rank = std::clamp<uint64_t>(Rank, 1, N);
    uint64_t Seen = 0;
    for (std::size_t I = 0; I < BucketCount; ++I) {
      Seen += Buckets[I];
      if (Seen >= Rank)
        return std::min(bucketLow(I), Max);
    }
    return Max;
  }

  static std::size_t bucketIndex(uint64_t T) {
    if (T < ExactTicks)
      return static_cast<std::size_t>(T);
    unsigned Msb = 63u - static_cast<unsigned>(std::countl_zero(T));
    uint64_t Sub = (T >> (Msb - SubBits)) & ((uint64_t(1) << SubBits) - 1);
    return ExactTicks + (std::size_t(Msb - ExactBits) << SubBits) +
           static_cast<std::size_t>(Sub);
  }

  static uint64_t bucketLow(std::size_t I) {
    if (I < ExactTicks)
      return I;
    std::size_t Rel = I - ExactTicks;
    unsigned Msb = static_cast<unsigned>(Rel >> SubBits) + ExactBits;
    uint64_t Sub = Rel & ((uint64_t(1) << SubBits) - 1);
    return ((uint64_t(1) << SubBits) | Sub) << (Msb - SubBits);
  }

private:
  std::vector<uint64_t> Buckets;
  uint64_t N = 0;
  uint64_t Max = 0;
};

/// True when percentile \p P of \p N samples has at least ten samples
/// beyond it, the rule for reporting a tail percentile.
inline bool percentileSupported(double P, uint64_t N) {
  return double(N) * (1.0 - P / 100.0) >= 10.0 - 1e-9;
}

/// The highest of the usual reporting percentiles that \p N samples support
/// (0 when not even the median has ten samples beyond it).
inline double highestSupportedPercentile(uint64_t N) {
  for (double P : {99.99, 99.9, 99.0, 90.0, 50.0})
    if (percentileSupported(P, N))
      return P;
  return 0.0;
}

/// Median of \p V (mean of the two middle values for an even count).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : 0.5 * (V[M - 1] + V[M]);
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
