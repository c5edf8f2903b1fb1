//===- stress/TortureRunner.cpp - Concurrency torture harness -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "stress/TortureRunner.h"

#include <atomic>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "kv/ShardedKvStore.h"
#include "runtime/SharedField.h"
#include "stress/KvOracle.h"
#include "support/Barrier.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "workloads/LockPolicies.h"

using namespace solero;
using namespace solero::stress;

namespace {

/// The guest exception some read sections complete with (Section 3.3's
/// "genuine exception" leg): it must propagate out of a consistent section
/// and be absorbed as a retry out of an inconsistent one.
struct GuestBoom {};

/// Per-thread oracle tallies, merged after the join.
struct WorkerTally {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t GuestThrows = 0;
  uint64_t ExclusionViolations = 0;
  uint64_t TornSnapshots = 0;
  uint64_t WatchdogTrips = 0;
  uint64_t MaxOpMicros = 0;
  /// ShardedKv only: a churn op disagreed with its owner's bitmap.
  uint64_t ChurnMismatches = 0;
};

/// The async-event storm: hammers every thread's poll flag at the
/// configured period, forcing speculationCheckpoint() validations and
/// SpeculationFault unwinds far more often than the production ticker.
class AsyncStorm {
public:
  explicit AsyncStorm(std::chrono::microseconds Period) {
    if (Period.count() <= 0)
      return;
    Worker = std::thread([this, Period] {
      while (!Stop.load(std::memory_order_acquire)) {
        AsyncEventBus::postToAllThreads();
        std::this_thread::sleep_for(Period);
      }
    });
  }
  ~AsyncStorm() {
    if (!Worker.joinable())
      return;
    Stop.store(true, std::memory_order_release);
    Worker.join();
  }

private:
  std::atomic<bool> Stop{false};
  std::thread Worker;
};

/// The one torture worker loop. Runs C.Threads workers, each calling
/// \p Step(Thread, Rng, Tally) C.IterationsPerThread times (one op per
/// call, which bumps Tally.Reads or Tally.Writes), under the perturber and
/// the async storm, with a per-op watchdog. Then merges the tallies and
/// checks the protocol counters of \p Policy: entries == issued ops
/// (SeqLock keeps no counters) and attempts == successes + failures.
/// Construct the locks before calling, so setup sections stay uncounted.
template <typename Policy, typename StepFn>
TortureReport runWorkers(const TortureConfig &C, StepFn Step) {
  TortureReport R;
  const std::chrono::microseconds Budget =
      C.ParkLatencyBudget.count() > 0 ? C.ParkLatencyBudget
                                      : C.Runtime.ParkMicros;
  const uint64_t BudgetNs = static_cast<uint64_t>(Budget.count()) * 1000u;

  SchedulePerturber::Options PO = C.Perturbation;
  PO.Seed = C.Seed;
  SchedulePerturber Perturber(PO);
  if (C.Perturb)
    Perturber.arm();

  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

  std::vector<WorkerTally> Tallies(static_cast<std::size_t>(C.Threads));
  SpinBarrier Start(static_cast<uint32_t>(C.Threads) + 1);
  std::vector<std::thread> Workers;
  Workers.reserve(static_cast<std::size_t>(C.Threads));
  {
    AsyncStorm Storm(C.AsyncStormPeriod);
    for (unsigned T = 0; T < static_cast<unsigned>(C.Threads); ++T)
      Workers.emplace_back([&, T] {
        WorkerTally &Tally = Tallies[T];
        Xoshiro256StarStar Rng(C.Seed * 0x9e3779b97f4a7c15ULL + T + 1);
        Start.arriveAndWait();
        for (uint64_t I = 0; I < C.IterationsPerThread; ++I) {
          Stopwatch Op;
          Step(T, Rng, Tally);
          uint64_t Ns = Op.elapsedNs();
          if (Ns / 1000u > Tally.MaxOpMicros)
            Tally.MaxOpMicros = Ns / 1000u;
          if (Ns >= BudgetNs)
            ++Tally.WatchdogTrips;
        }
      });
    Start.arriveAndWait();
    for (auto &W : Workers)
      W.join();
    // Storm stops here, before the perturber disarms.
  }
  Perturber.disarm();
  R.InjectionFirings = Perturber.firings();
  R.WatchdogEnforced = C.EnforceWatchdog;

  for (const WorkerTally &T : Tallies) {
    R.Reads += T.Reads;
    R.Writes += T.Writes;
    R.GuestThrows += T.GuestThrows;
    R.ExclusionViolations += T.ExclusionViolations;
    R.TornSnapshots += T.TornSnapshots;
    R.WatchdogTrips += T.WatchdogTrips;
    if (T.MaxOpMicros > R.MaxOpMicros)
      R.MaxOpMicros = T.MaxOpMicros;
    if (T.ChurnMismatches != 0) {
      R.CountersConserved = false;
      R.Failure = "churn op disagreed with its owner's bitmap";
    }
  }

  // Every issued op entered exactly one section, and the elision ledger
  // balances (trivially, for protocols that never elide).
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  if (!std::is_same_v<Policy, SeqLockPolicy> &&
      (After.WriteEntries - Before.WriteEntries != R.Writes ||
       After.ReadOnlyEntries - Before.ReadOnlyEntries != R.Reads)) {
    R.CountersConserved = false;
    R.Failure = "entry counters != issued operations";
  }
  if (After.ElisionAttempts - Before.ElisionAttempts !=
      (After.ElisionSuccesses - Before.ElisionSuccesses) +
          (After.ElisionFailures - Before.ElisionFailures)) {
    R.CountersConserved = false;
    R.Failure = "attempts != successes + failures";
  }
  return R;
}

// --- Bare-lock mix ---------------------------------------------------------
// One lock guards an (A, B) field pair. Writers keep B == -A at all times
// *as observed under the lock* and claim an exclusion token inside the
// section; an optimistic reader seeing A != -B read a torn snapshot.

template <typename Policy> TortureReport runBareLock(const TortureConfig &C) {
  RuntimeContext Ctx(C.Runtime);
  Policy Lock(Ctx);
  SharedField<int64_t> A{0}, B{0};
  std::atomic<uint64_t> Token{0};

  auto Step = [&](unsigned T, Xoshiro256StarStar &Rng, WorkerTally &Tally) {
    const uint64_t Tag = T + 1;
    if (Rng.nextPercent(static_cast<unsigned>(C.WritePercent))) {
      Lock.write([&] {
        if (Token.exchange(Tag, std::memory_order_acq_rel) != 0)
          ++Tally.ExclusionViolations;
        int64_t V = A.read() + 1;
        A.write(V);
        B.write(-V);
        if (Token.exchange(0, std::memory_order_acq_rel) != Tag)
          ++Tally.ExclusionViolations;
      });
      ++Tally.Writes;
      return;
    }
    bool Throw = Rng.nextPercent(static_cast<unsigned>(C.GuestThrowPercent));
    try {
      auto P = Lock.read([&](ReadGuard &) {
        std::pair<int64_t, int64_t> Snap(A.read(), B.read());
        if (Throw)
          throw GuestBoom{};
        return Snap;
      });
      if (P.first != -P.second)
        ++Tally.TornSnapshots;
    } catch (GuestBoom &) {
      // Genuine guest exception: the protocol validated the section's
      // reads before letting it escape.
      ++Tally.GuestThrows;
    }
    ++Tally.Reads;
  };
  TortureReport R = runWorkers<Policy>(C, Step);

  // Data conservation: every write incremented A exactly once.
  if (A.read() != static_cast<int64_t>(R.Writes) ||
      B.read() != -static_cast<int64_t>(R.Writes)) {
    R.CountersConserved = false;
    R.Failure = "lost or duplicated write (A != total writes)";
  }
  if (!Lock.released()) {
    R.FinalStateClean = false;
    if (R.Failure.empty())
      R.Failure = "lock not released/deflated after the run";
  }
  return R;
}

// --- ShardedKv mix ---------------------------------------------------------
// Drives kv/ShardedKvStore.h under SOLERO shard locks: four shards at the
// minimum table capacity, so the default churn universe (48 keys/thread)
// overflows 16 slots many times over and resizes and tombstone purges
// happen continuously under the readers. The invariants are KvOracle's.

TortureReport runShardedKv(const TortureConfig &C) {
  constexpr unsigned ChurnKeysPerThread = 48;
  RuntimeContext Ctx(C.Runtime);
  kv::ShardedKvStore<SoleroPolicy> Store(
      Ctx, kv::KvStoreConfig{4, /*InitialShardCapacity=*/16});
  KvOracle Oracle(Store, static_cast<unsigned>(C.Threads), ChurnKeysPerThread);

  auto Step = [&](unsigned T, Xoshiro256StarStar &Rng, WorkerTally &Tally) {
    unsigned S = static_cast<unsigned>(Rng.nextBounded(Store.shardCount()));
    unsigned Idx = static_cast<unsigned>(Rng.nextBounded(ChurnKeysPerThread));
    if (Rng.nextPercent(static_cast<unsigned>(C.WritePercent))) {
      if (Rng.nextPercent(50))
        Tally.ExclusionViolations += !Oracle.bumpPair(S, T + 1);
      else
        Tally.ChurnMismatches += !Oracle.flipChurn(T, Idx);
      ++Tally.Writes;
      return;
    }
    uint64_t Kind = Rng.nextBounded(3);
    bool Throw =
        Kind == 0 &&
        Rng.nextPercent(static_cast<unsigned>(C.GuestThrowPercent));
    bool Ok = true;
    try {
      if (Kind == 0) {
        // Invariant-pair read: one validated section must never see
        // A + B != 0.
        Ok = Store.readShard(S, [&](const kv::ShardTable &Table, ReadGuard &) {
          bool Pair = Oracle.pairHolds(Table, S);
          if (Throw)
            throw GuestBoom{};
          return Pair;
        });
      } else if (Kind == 1) {
        Ok = Store.readShard(S, [&](const kv::ShardTable &Table, ReadGuard &) {
          return Oracle.scanHolds(Table);
        });
      } else {
        Tally.ChurnMismatches += !Oracle.getOwnKey(T, Idx);
      }
    } catch (GuestBoom &) {
      ++Tally.GuestThrows;
    }
    Tally.TornSnapshots += !Ok;
    ++Tally.Reads;
  };
  TortureReport R = runWorkers<SoleroPolicy>(C, Step);

  std::vector<std::string> Failures = Oracle.verify(/*BaseLive=*/0);
  if (!Failures.empty()) {
    R.FinalStateClean = false;
    if (R.Failure.empty())
      R.Failure = Failures.front();
  }
  return R;
}

} // namespace

const char *solero::stress::tortureProtocolName(TortureProtocol P) {
  switch (P) {
  case TortureProtocol::Solero:
    return SoleroPolicy::name();
  case TortureProtocol::Tasuki:
    return TasukiPolicy::name();
  case TortureProtocol::SeqLock:
    return SeqLockPolicy::name();
  case TortureProtocol::RWLock:
    return RwPolicy::name();
  case TortureProtocol::BravoRW:
    return BravoRwPolicy::name();
  case TortureProtocol::ShardedKv:
    return "ShardedKv";
  }
  return "<unknown>";
}

RuntimeConfig solero::stress::adversarialTortureRuntime() {
  RuntimeConfig C;
  C.Tiers = SpinTiers{4, 2, 1};
  C.ParkMicros = std::chrono::microseconds(25000);
  C.AsyncEventPeriod = std::chrono::microseconds(0);
  return C;
}

std::string TortureReport::summary() const {
  std::string S = "reads=" + std::to_string(Reads) +
                  " writes=" + std::to_string(Writes) +
                  " throws=" + std::to_string(GuestThrows) +
                  " excl=" + std::to_string(ExclusionViolations) +
                  " torn=" + std::to_string(TornSnapshots) +
                  " trips=" + std::to_string(WatchdogTrips) +
                  " maxop_us=" + std::to_string(MaxOpMicros) +
                  " firings=" + std::to_string(InjectionFirings);
  if (!Failure.empty())
    S += " FAIL(" + Failure + ")";
  return S;
}

TortureReport solero::stress::runTorture(const TortureConfig &Config) {
  switch (Config.Protocol) {
  case TortureProtocol::Solero:
    return runBareLock<SoleroPolicy>(Config);
  case TortureProtocol::Tasuki:
    return runBareLock<TasukiPolicy>(Config);
  case TortureProtocol::SeqLock:
    return runBareLock<SeqLockPolicy>(Config);
  case TortureProtocol::RWLock:
    return runBareLock<RwPolicy>(Config);
  case TortureProtocol::BravoRW:
    return runBareLock<BravoRwPolicy>(Config);
  case TortureProtocol::ShardedKv:
    return runShardedKv(Config);
  }
  return TortureReport{};
}
