//===- resilience/Watchdog.h - Stuck-speculation watchdog -------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monitor thread that detects pathological lock states and forces
/// recovery (DESIGN.md §17). The paper's premise is that speculation must
/// fail *safely and cheaply* — fall back to the flat lock (§3). The
/// adaptive layers already self-limit on their own evidence (failure
/// ratios, revocation cost), but evidence-driven policies have a blind
/// spot: a pathology that stops the evidence from flowing. A reader
/// parked beyond any reasonable bound produces no window samples; an
/// elision failure storm burns CPU faster than the decayed windows
/// converge; BRAVO bias that keeps re-arming between revocations ping-
/// pongs forever because each individual revocation looks cheap. The
/// watchdog watches from outside the protocols:
///
///   StalledSection         a request's critical section has been in
///                          flight past StallBoundNs (per-slot op table,
///                          maintained by the service's workers)
///   ElisionFailureStorm    process-wide elision failures grew by more
///                          than StormFailures in one poll at a failure
///                          ratio above StormRatio
///   BiasRevocationLivelock a watched BravoRwLock revoked more than
///                          RevocationsPerPoll times in one poll and is
///                          biased *again* — the revoke/re-arm ping-pong
///
/// Recovery is forced degradation, never a crash: drive every watched
/// ElisionController cell to Disabled (forceDisable) and revoke + inhibit
/// every watched lock's bias (forceRevokeBias), then record a structured
/// ResilienceDiagnostic. The protocols' own fallback paths do the rest —
/// traffic continues on the flat lock, and the normal Reprobe/inhibit
/// machinery re-enables speculation once the pathology clears.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_RESILIENCE_WATCHDOG_H
#define SOLERO_RESILIENCE_WATCHDOG_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/ThreadRegistry.h"
#include "support/CacheLine.h"

namespace solero {

class ElisionController;
class BravoRwLock;

namespace resilience {

/// What the watchdog detected.
enum class PathologyKind : uint8_t {
  StalledSection,
  ElisionFailureStorm,
  BiasRevocationLivelock,
};

const char *pathologyKindName(PathologyKind K);

/// One detected pathology plus the recovery the watchdog forced — the
/// structured, never-a-crash output (same philosophy as image::Diagnostic).
struct ResilienceDiagnostic {
  PathologyKind Kind;
  uint64_t DetectedAtNs = 0; ///< steady-clock detection time
  uint64_t ObservedNs = 0;   ///< stall age / failure delta / revocation delta
  int Slot = -1;             ///< offending registry slot (stalls only)
  uint32_t ForcedDisables = 0;
  uint32_t ForcedRevocations = 0;

  /// "watchdog: <kind> (...) -> forced D controllers Disabled, R biases
  /// revoked; traffic continues on the flat path"
  std::string render() const;
};

struct WatchdogConfig {
  uint64_t PollPeriodNs = 2'000'000; ///< 2 ms between polls
  /// An in-flight op older than this is a stalled section.
  uint64_t StallBoundNs = 100'000'000;
  /// Failure-storm window: at least this many new elision failures in one
  /// poll, at a failure ratio of at least StormRatio.
  uint64_t StormFailures = 20'000;
  double StormRatio = 0.85;
  /// Revocation-livelock window: more than this many revocations of one
  /// lock in one poll with its bias set again at poll time.
  uint64_t RevocationsPerPoll = 64;
  /// Inhibit window handed to forceRevokeBias on recovery.
  int64_t BiasInhibitNs = 100'000'000;
  /// Diagnostics ring bound (oldest dropped beyond this).
  std::size_t MaxDiagnostics = 64;
};

/// The monitor. Register the speculation state to guard (controllers,
/// BRAVO locks), start(), feed opBegin/opEnd from the request path, and
/// read stats()/diagnostics() at the end. Registration is not thread-safe
/// against a running watchdog: register before start().
class SpeculationWatchdog {
public:
  explicit SpeculationWatchdog(WatchdogConfig Cfg);
  ~SpeculationWatchdog();

  SpeculationWatchdog(const SpeculationWatchdog &) = delete;
  SpeculationWatchdog &operator=(const SpeculationWatchdog &) = delete;

  /// Guards \p C: forced to Disabled on any detected pathology.
  void watchController(ElisionController *C);
  /// Guards \p L: bias force-revoked on any detected pathology, and its
  /// revocation rate is itself monitored for livelock.
  void watchBravo(BravoRwLock *L);

  void start();
  /// Stops and joins the monitor thread (idempotent; destructor calls it).
  void stop();

  // --- Request-path op table ---------------------------------------------
  // Workers bracket each dispatched request. Slot is the worker thread's
  // ThreadRegistry slot; one cache line each, plain stores by the owner.

  void opBegin(uint32_t Slot, uint64_t NowNs) {
    Ops[Slot].StartNs.store(NowNs, std::memory_order_relaxed);
  }
  void opEnd(uint32_t Slot) {
    Ops[Slot].StartNs.store(0, std::memory_order_relaxed);
  }

  /// Runs one detection pass at \p NowNs as if the poll timer fired.
  /// Exposed so the deterministic tests (and the chaos soak's shutdown
  /// path) don't have to race the wall clock.
  void pollOnce(uint64_t NowNs);

  struct Stats {
    uint64_t Polls = 0;
    uint64_t StallsDetected = 0;
    uint64_t FailureStorms = 0;
    uint64_t RevocationStorms = 0;
    uint64_t ForcedDisables = 0;
    uint64_t ForcedRevocations = 0;
  };
  Stats stats() const;

  /// Snapshot of the bounded diagnostics ring (copy under the mutex).
  std::vector<ResilienceDiagnostic> diagnostics() const;

  const WatchdogConfig &config() const { return Cfg; }

private:
  struct alignas(CacheLineSize) OpCell {
    std::atomic<uint64_t> StartNs{0};
  };

  /// Forces degradation everywhere and records one diagnostic.
  void forceRecovery(ResilienceDiagnostic D);

  WatchdogConfig Cfg;
  std::vector<ElisionController *> Controllers;
  struct BravoWatch {
    BravoRwLock *Lock;
    uint64_t LastRevocations = 0;
  };
  std::vector<BravoWatch> Bravos;
  std::unique_ptr<OpCell[]> Ops; ///< ThreadRegistry::MaxThreads cells
  /// Last stall start-ns already reported per slot, so one stuck section
  /// fires one diagnostic instead of one per poll.
  std::unique_ptr<uint64_t[]> Reported;

  std::atomic<bool> Running{false};
  std::thread Monitor;

  // Poll-to-poll baselines (monitor thread only).
  uint64_t LastAttempts = 0;
  uint64_t LastFailures = 0;
  bool HaveBaseline = false;

  // Stats (relaxed atomics: monitor writes, anyone reads).
  std::atomic<uint64_t> Polls{0};
  std::atomic<uint64_t> Stalls{0};
  std::atomic<uint64_t> Storms{0};
  std::atomic<uint64_t> RevStorms{0};
  std::atomic<uint64_t> Disables{0};
  std::atomic<uint64_t> Revokes{0};

  mutable std::mutex DiagMutex;
  std::vector<ResilienceDiagnostic> Diags;
};

} // namespace resilience
} // namespace solero

#endif // SOLERO_RESILIENCE_WATCHDOG_H
