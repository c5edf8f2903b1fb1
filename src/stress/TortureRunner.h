//===- stress/TortureRunner.h - Concurrency torture harness -----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one of the shipped lock policies (workloads/LockPolicies.h:
/// SOLERO, Lock, SeqLock, RWLock, BravoRW), or a kv::ShardedKvStore under
/// SOLERO shard locks, through an adversarial mixed read/write workload
/// under seeded schedule perturbation (stress/SchedulePerturber.h) and an
/// optional async-event storm, and checks invariant oracles:
///
///   - mutual exclusion: a token exchanged at write-section entry/exit
///     must never find another owner inside;
///   - snapshot consistency: elided/optimistic reads of the (A, -A) field
///     pair must never observe a torn pair;
///   - counter conservation: ElisionAttempts == ElisionSuccesses +
///     ElisionFailures, and entry counters match issued operations;
///   - final state: every lock reports released() after the run;
///   - park-latency watchdog: any single operation stalled for a full
///     ParkMicros is the lost-wakeup signature (a parked FLC contender
///     nobody notified, rescued only by the timed-park backstop) and is
///     flagged in the report.
///
/// The runner is deterministic in its inputs (seeded RNG streams, fixed
/// iteration counts); the interleavings explored still vary with the OS
/// scheduler, so CI sweeps a small seed set rather than chasing one seed.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_STRESS_TORTURERUNNER_H
#define SOLERO_STRESS_TORTURERUNNER_H

#include <chrono>
#include <cstdint>
#include <string>

#include "runtime/RuntimeContext.h"
#include "stress/SchedulePerturber.h"

namespace solero {
namespace stress {

/// Which lock protocol the torture run drives. ShardedKv is not a bare
/// protocol but the kv/ShardedKvStore.h subsystem under SOLERO shard
/// locks, checked by stress/KvOracle.h: the same oracles (exclusion token,
/// torn pair, conservation) plus cross-shard counter conservation, scan
/// consistency, owner-bitmap churn keys, and the epoch/pool leak check.
enum class TortureProtocol {
  Solero,
  Tasuki,
  SeqLock,
  RWLock,
  BravoRW,
  ShardedKv
};

const char *tortureProtocolName(TortureProtocol P);

/// A runtime tuned to force the slow paths constantly: one spin round,
/// short parks, event bus off (the storm thread drives async events).
RuntimeConfig adversarialTortureRuntime();

/// One torture scenario (a single cell of the cross-product matrix).
struct TortureConfig {
  TortureProtocol Protocol = TortureProtocol::Solero;
  int Threads = 4;
  /// Percentage of operations that are writing critical sections.
  int WritePercent = 20;
  /// Percentage of read sections that complete by throwing a guest
  /// exception (exercises the Section 3.3 genuine-exception path).
  int GuestThrowPercent = 0;
  uint64_t Seed = 1;
  uint64_t IterationsPerThread = 2000;
  /// Period of the async-event storm thread; 0 disables it.
  std::chrono::microseconds AsyncStormPeriod{0};
  /// Arm the schedule perturber for the run (Perturbation.Seed is
  /// overridden with Seed).
  bool Perturb = true;
  SchedulePerturber::Options Perturbation{};
  RuntimeConfig Runtime = adversarialTortureRuntime();
  /// Watchdog threshold; 0 means Runtime.ParkMicros (the lost-wakeup
  /// signature: one full timed park).
  std::chrono::microseconds ParkLatencyBudget{0};
  /// When true, watchdog trips fail passed(). Leave false on oversubscribed
  /// hosts where scheduling noise can stretch an op past the budget.
  bool EnforceWatchdog = false;
};

/// Oracle outcomes of one torture run.
struct TortureReport {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t GuestThrows = 0;
  uint64_t ExclusionViolations = 0;
  uint64_t TornSnapshots = 0;
  uint64_t WatchdogTrips = 0;
  uint64_t MaxOpMicros = 0;
  uint64_t InjectionFirings = 0;
  bool CountersConserved = true;
  bool FinalStateClean = true;
  bool WatchdogEnforced = false;
  /// Human-readable description of the first conservation/state failure.
  std::string Failure;

  bool passed() const {
    return ExclusionViolations == 0 && TornSnapshots == 0 &&
           CountersConserved && FinalStateClean &&
           (!WatchdogEnforced || WatchdogTrips == 0);
  }

  /// One-line summary for logs and tables.
  std::string summary() const;
};

/// Runs one torture scenario to completion and reports the oracles.
TortureReport runTorture(const TortureConfig &Config);

} // namespace stress
} // namespace solero

#endif // SOLERO_STRESS_TORTURERUNNER_H
