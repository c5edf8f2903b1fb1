//===- stress/ChaosDirector.h - Seeded fault campaigns ----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault-injection campaigns against a live KV soak run
/// (DESIGN.md §17). The schedule-perturbing torture runner attacks the
/// lock *protocols* at nanosecond transition windows; the ChaosDirector
/// attacks the *service* at millisecond scale — the failure modes a
/// speculation-built service meets in production:
///
///   SlowShard       one shard's requests pay an injected delay (a cold
///                   NUMA hop, a page fault burst): drives queueing into
///                   the deadline/shed machinery
///   ParkStorm       SchedulePerturber armed yield/spin-heavy across all
///                   injection sites: preemption storms inside lock-word
///                   transition windows
///   WakeupStorm     SchedulePerturber armed sleep-heavy on the monitor
///                   park/FLC sites only: lost-wakeup-shaped stalls, the
///                   paper's §3 fallback pressure
///   ClockJump       a skew applied to the *deadline clock* (not the
///                   latency accounting): expiry decisions go wrong the
///                   way NTP steps make them go wrong
///   CorruptRestore  a warm-image restore from corrupted bytes attempted
///                   mid-flight (image layer must degrade to a
///                   Diagnostic, never crash or poison live lock state)
///
/// The campaign is a pure function of the seed: event kinds, offsets,
/// durations, and parameters are drawn from a SplitMix64 stream at
/// construction, so `kv_service --seed=N` replays byte-for-byte the same
/// schedule (scheduleString() is printed and diffable across runs). The
/// director thread applies each event at its offset and reverts it at its
/// end; workers observe faults through lock-free accessors.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_STRESS_CHAOSDIRECTOR_H
#define SOLERO_STRESS_CHAOSDIRECTOR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stress/SchedulePerturber.h"
#include "support/Clock.h"

namespace solero {
namespace stress {

enum class FaultKind : uint8_t {
  SlowShard = 0,
  ParkStorm,
  WakeupStorm,
  ClockJump,
  CorruptRestore,
  KindCount
};

const char *faultKindName(FaultKind K);

/// One scheduled fault: active on [StartNs, EndNs) relative to campaign
/// start. Param is kind-specific: shard index (SlowShard), skew ns signed
/// via cast (ClockJump), unused otherwise.
struct ChaosEvent {
  FaultKind Kind;
  uint64_t StartNs;
  uint64_t EndNs;
  uint64_t Param;
  uint64_t DelayNs; ///< SlowShard: injected per-op delay
};

struct ChaosConfig {
  uint64_t Seed = 1;
  uint64_t DurationNs = 5'000'000'000; ///< campaign length
  unsigned Shards = 16;                ///< SlowShard parameter space
  uint64_t MeanGapNs = 120'000'000;    ///< quiet time between faults
  uint64_t MinEventNs = 40'000'000;    ///< fault active-window bounds
  uint64_t MaxEventNs = 150'000'000;
  uint64_t SlowShardDelayNs = 200'000; ///< per-op delay while active
  uint64_t ClockJumpMaxNs = 50'000'000;
  /// Per-kind enable mask (bit = static_cast<uint8_t>(FaultKind)); all on.
  uint32_t KindMask = 0xffffffffu;
};

/// Builds the seeded schedule at construction; start() launches the
/// director thread that applies/reverts events on the wall clock.
class ChaosDirector {
public:
  explicit ChaosDirector(ChaosConfig Cfg);
  ~ChaosDirector();

  ChaosDirector(const ChaosDirector &) = delete;
  ChaosDirector &operator=(const ChaosDirector &) = delete;

  const std::vector<ChaosEvent> &schedule() const { return Schedule; }

  /// The schedule rendered one event per line — byte-for-byte identical
  /// for equal (Seed, DurationNs, Shards, bounds): the reproducibility
  /// contract the acceptance criteria check.
  std::string scheduleString() const;

  /// CorruptRestore handler: invoked on the director thread while traffic
  /// runs. The KV soak registers a lambda that feeds garbage bytes to the
  /// image-restore path and checks it degrades to a Diagnostic.
  void setCorruptRestoreHook(std::function<void()> Hook) {
    CorruptRestore = std::move(Hook);
  }

  /// Launches the director; events fire at BeginNs + event offset.
  void start(uint64_t BeginNs);
  /// Reverts any active fault and joins the director (idempotent).
  void stop();

  // --- Worker-facing fault state (lock-free) -----------------------------

  /// Injected delay for \p Shard's ops right now (0 when no fault).
  uint64_t shardDelayNs(unsigned Shard) const {
    return ShardDelay[Shard].load(std::memory_order_relaxed);
  }
  /// The deadline clock: nowNs() shifted by the active ClockJump skew
  /// (clamped at 0). Latency accounting stays on the real clock.
  uint64_t deadlineNowNs() const {
    int64_t Skew = ClockSkew.load(std::memory_order_relaxed);
    uint64_t Now = nowNs();
    if (Skew >= 0)
      return Now + static_cast<uint64_t>(Skew);
    uint64_t Back = static_cast<uint64_t>(-Skew);
    return Now > Back ? Now - Back : 0;
  }
  /// Events whose active window has been applied so far.
  uint64_t faultsApplied() const {
    return Applied.load(std::memory_order_relaxed);
  }
  /// True while any fault is active (reporting only).
  bool faultActive() const {
    return ActiveCount.load(std::memory_order_relaxed) != 0;
  }

private:
  void run(uint64_t BeginNs);
  void apply(const ChaosEvent &E);
  void revert(const ChaosEvent &E);

  ChaosConfig Cfg;
  std::vector<ChaosEvent> Schedule;
  std::unique_ptr<std::atomic<uint64_t>[]> ShardDelay;
  std::atomic<int64_t> ClockSkew{0};
  std::atomic<uint64_t> Applied{0};
  std::atomic<uint32_t> ActiveCount{0};
  std::function<void()> CorruptRestore;
  /// Each storm event arms a fresh perturber (at most one armed at a
  /// time: events never overlap). Disarmed perturbers are retired here,
  /// not destroyed: a worker may still be executing the old hook body the
  /// instant it is disarmed, so the objects must outlive all traffic —
  /// the director is destroyed only after the soak's workers join.
  std::vector<std::unique_ptr<SchedulePerturber>> Perturbers;
  std::atomic<bool> Running{false};
  std::thread Director;
};

} // namespace stress
} // namespace solero

#endif // SOLERO_STRESS_CHAOSDIRECTOR_H
