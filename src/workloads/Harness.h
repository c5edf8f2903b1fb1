//===- workloads/Harness.h - Throughput benchmark harness -------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness behind every table/figure binary. Reproduces
/// the paper's methodology (Section 4.1): per configuration it runs R
/// trials, inside each trial measures the throughput of a fixed window,
/// and reports the best score; results also carry the protocol-counter
/// deltas (atomic RMWs, lock-word stores, elision outcomes) that serve as
/// the coherence-traffic proxies discussed in DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_WORKLOADS_HARNESS_H
#define SOLERO_WORKLOADS_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/ThreadRegistry.h"
#include "support/Barrier.h"
#include "support/Stats.h"
#include "support/Stopwatch.h"

namespace solero {

/// One measured window.
struct BenchResult {
  double OpsPerSec = 0;
  uint64_t Ops = 0;
  double Seconds = 0;
  ProtocolCounters Delta; ///< protocol counters accumulated in the window

  /// Elision failure ratio (Figure 15): failures / attempts. The explicit
  /// attempts==0 guard (belt to safeRatio's braces) keeps a zero-attempt
  /// variant from ever feeding NaN into the JSON emitters.
  double failureRatio() const {
    if (Delta.ElisionAttempts.value() == 0)
      return 0.0;
    return safeRatio(Delta.ElisionFailures, Delta.ElisionAttempts);
  }

  /// Atomic RMW operations per workload op — the coherence-traffic proxy.
  double rmwPerOp() const { return safeRatio(Delta.AtomicRmws, Ops); }

  /// Lock-word stores per workload op.
  double storesPerOp() const { return safeRatio(Delta.LockWordStores, Ops); }

  /// Ratio of read-only critical-section entries (Table 1 column 3).
  double readOnlyRatio() const {
    return safeRatio(Delta.ReadOnlyEntries,
                     Delta.WriteEntries + Delta.ReadOnlyEntries);
  }

  /// Critical-section entries per second (Table 1 column 2).
  double locksPerSec() const {
    return Seconds == 0
               ? 0.0
               : static_cast<double>(Delta.WriteEntries +
                                     Delta.ReadOnlyEntries) /
                     Seconds;
  }

  /// Fraction of read-only sections whose speculation was skipped by the
  /// adaptive elision controller (Disabled state).
  double skipRatio() const {
    return safeRatio(Delta.ElisionSkips, Delta.ReadOnlyEntries);
  }

  /// "throttles/disables/reprobes/re-enables" controller-transition
  /// summary for stats tables.
  std::string controllerTransitions() const {
    return std::to_string(Delta.CtrlThrottles.value()) + "/" +
           std::to_string(Delta.CtrlDisables.value()) + "/" +
           std::to_string(Delta.CtrlReprobes.value()) + "/" +
           std::to_string(Delta.CtrlReenables.value());
  }
};

inline ProtocolCounters countersDelta(const ProtocolCounters &Before,
                                      const ProtocolCounters &After) {
  ProtocolCounters D = After;
  D -= Before;
  return D;
}

/// Harness options.
struct HarnessOptions {
  std::chrono::milliseconds Window{300}; ///< one measured window
  int Trials = 3;                        ///< best-of (paper: best of 5)
  std::chrono::milliseconds Warmup{50};  ///< unmeasured warm-up per trial
};

/// Runs \p Threads workers executing `Op(ThreadIndex)` in a loop for the
/// configured window; returns the best trial. \p Op is any callable; one
/// instance is shared, so it must be thread-safe (workloads are).
template <typename OpFn>
BenchResult runThroughput(int Threads, const HarnessOptions &Opts, OpFn &&Op) {
  BenchResult Best;
  for (int Trial = 0; Trial < Opts.Trials; ++Trial) {
    std::atomic<bool> Warm{false}, Stop{false};
    std::vector<uint64_t> OpCounts(static_cast<std::size_t>(Threads), 0);
    SpinBarrier Start(static_cast<uint32_t>(Threads) + 1);
    ProtocolCounters Before, After;
    std::vector<std::thread> Workers;
    Workers.reserve(static_cast<std::size_t>(Threads));
    for (int T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        Start.arriveAndWait();
        // Warm-up: run but do not count.
        while (!Warm.load(std::memory_order_acquire))
          Op(T);
        uint64_t Local = 0;
        while (!Stop.load(std::memory_order_acquire)) {
          Op(T);
          ++Local;
        }
        OpCounts[static_cast<std::size_t>(T)] = Local;
      });

    Start.arriveAndWait();
    std::this_thread::sleep_for(Opts.Warmup);
    Before = ThreadRegistry::instance().totalCounters();
    Stopwatch Clock;
    Warm.store(true, std::memory_order_release);
    std::this_thread::sleep_for(Opts.Window);
    Stop.store(true, std::memory_order_release);
    double Secs = Clock.elapsedSeconds();
    for (auto &W : Workers)
      W.join();
    After = ThreadRegistry::instance().totalCounters();

    BenchResult R;
    for (uint64_t C : OpCounts)
      R.Ops += C;
    R.Seconds = Secs;
    // Guarded: a degenerate zero-length window (clock quantization under
    // --window-ms=0) must report 0, not inf/nan, for the JSON emitters.
    R.OpsPerSec = Secs > 0 ? static_cast<double>(R.Ops) / Secs : 0.0;
    R.Delta = countersDelta(Before, After);
    if (R.OpsPerSec > Best.OpsPerSec)
      Best = R;
  }
  return Best;
}

/// A named one-trial runner for interleaved comparisons.
struct TrialRunner {
  std::string Name;
  std::function<BenchResult()> RunOneTrial;
};

/// Runs the competitors round-robin for \p Rounds rounds and keeps each
/// one's best trial. Interleaving makes slow drifts of the host's available
/// CPU (frequency scaling, steal time on shared vCPUs) hit every
/// implementation equally instead of biasing whichever ran last — without
/// it, same-binary reruns on this container disagree by tens of percent.
/// Odd rounds run in reverse order: with a fixed order a null comparison
/// (identical runners) still shows the later slot a steady couple of
/// percent behind the first, and best-of over both positions cancels that
/// slot bias too.
inline std::vector<BenchResult>
runInterleavedBest(const std::vector<TrialRunner> &Runners, int Rounds) {
  std::vector<BenchResult> Best(Runners.size());
  for (int Round = 0; Round < Rounds; ++Round)
    for (std::size_t K = 0; K < Runners.size(); ++K) {
      std::size_t I = (Round % 2) ? Runners.size() - 1 - K : K;
      BenchResult R = Runners[I].RunOneTrial();
      if (R.OpsPerSec > Best[I].OpsPerSec)
        Best[I] = R;
    }
  return Best;
}

} // namespace solero

#endif // SOLERO_WORKLOADS_HARNESS_H
