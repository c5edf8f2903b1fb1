//===- bench/kv_service.cpp - KV service chaos soak -----------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The resilience soak of the sharded KV store (kv/ShardedKvStore.h,
/// DESIGN.md §17): each selected policy serves a fixed-rate *open-loop*
/// load — Poisson arrivals, Zipfian key popularity — under a seeded
/// ChaosDirector fault campaign, with deadline cancellation, token-bucket
/// GET retries, priority load shedding, and the ShardedKv torture oracles
/// (stress/KvOracle.h: exclusion, pair conservation, scan consistency,
/// churn bitmap, leak, released shard locks) asserted throughout and at
/// the end. Each request is charged from its scheduled arrival time, so a
/// stalled worker pays its backlog in the tail (the BRAVO paper's
/// open-loop argument). Exit code is nonzero on any oracle violation.
///
/// The policies' read-path speed is measured closed-loop by perfbench
/// (`kv-read-hot`, `kv-write-churn`, `kv-scan-mix`): an open-loop p99 on
/// a shared host measures pre-emption, not the service.
///
///   kv_service --quick                 # CI smoke
///   kv_service --seed=7 --duration-ms=5000 --json=BENCH_chaos.json
///   kv_service --policies=Lock,SOLERO  # any policy of the portfolio
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "image/Image.h"
#include "image/Resources.h"
#include "kv/ShardedKvStore.h"
#include "resilience/Deadline.h"
#include "resilience/RetryBudget.h"
#include "resilience/ShedController.h"
#include "stress/ChaosDirector.h"
#include "stress/KvOracle.h"
#include "support/Backoff.h"
#include "support/CacheLine.h"
#include "support/Clock.h"
#include "support/Distributions.h"
#include "support/LatencyHistogram.h"
#include "support/NumaTopology.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace solero;

namespace {

/// Waits until \p TargetNs: yields while more than 10 us remain (other
/// workers sharing the CPU get to run), relaxes for the final stretch. No
/// sleep: a timed sleep's late wake-up would be charged as queueing delay.
void waitUntil(uint64_t TargetNs) {
  for (uint64_t Now = nowNs(); Now < TargetNs; Now = nowNs()) {
    if (TargetNs - Now > 10000)
      osYield();
    else
      cpuRelax();
  }
}

double usOf(uint64_t Ns) { return static_cast<double>(Ns) * 1e-3; }

struct SoakParams {
  unsigned Shards = 16;
  uint64_t Keys = 1 << 16;
  double Zipf = 0.99;
  int Threads = 4;
  uint64_t DurationNs = 5000ull * 1000 * 1000;
  bool Pin = true;
  uint64_t Seed = 0x5eed;
  double RatePerSec = 15000;           ///< fixed offered rate
  uint64_t DeadlineNs = 20'000'000;    ///< per-request budget from arrival
  uint64_t DegradedSloNs = 60'000'000; ///< admitted-p99 bound under faults
  uint64_t WindowNs = 50'000'000;      ///< shed monitor window
  double RetryPerSec = 200;            ///< per-worker retry token rate
  double RetryBurst = 20;
  stress::ChaosConfig Chaos;
  resilience::ShedConfig Shed;
};

/// Prefills \p Store with keys [0, P.Keys), the Zipfian sampler's range.
template <typename Store> void prefill(Store &S, const SoakParams &P) {
  SplitMix64 Fill(P.Seed);
  for (uint64_t K = 0; K < P.Keys; ++K)
    S.put(K, Fill.next() >> 1);
}

//===----------------------------------------------------------------------===//
// The open-loop driver
//===----------------------------------------------------------------------===//

struct LoadResult {
  BenchResult Bench; ///< Ops = served, OpsPerSec = achieved
  uint64_t P50Ns = 0, P99Ns = 0, MaxNs = 0;
  uint64_t SkippedArrivals = 0; ///< shed by the bounded catch-up burst
};

/// One open-loop run over P.DurationNs at P.RatePerSec. Each of P.Threads
/// pinned workers paces a Poisson share of the rate through an
/// ArrivalSchedule and hands every due arrival to the caller's server.
/// The server records each request it serves through record(), which
/// charges latency from the request's scheduled time: a worker running
/// behind pays its backlog in the tail.
class OpenLoop {
public:
  /// Arrival backlog bound, in mean gaps: a stalled worker issues at most
  /// this many arrivals late and *counts* the rest as skipped (never
  /// silently re-anchors the schedule).
  static constexpr uint64_t CatchUpBurstMax = 512;

  explicit OpenLoop(const SoakParams &P)
      : P(P), Hists(static_cast<std::size_t>(P.Threads)),
        Lag(std::make_unique<std::atomic<uint64_t>[]>(Hists.size())) {}
  // Workers and the shed monitor hold its address.
  OpenLoop(const OpenLoop &) = delete;
  OpenLoop &operator=(const OpenLoop &) = delete;

  /// Records one request of worker \p T, due at \p DueNs, as served now.
  /// Returns its latency.
  uint64_t record(unsigned T, uint64_t DueNs) {
    uint64_t DoneAt = nowNs();
    uint64_t Lat = DoneAt > DueNs ? DoneAt - DueNs : 1;
    Hists[T].record(Lat);
    return Lat;
  }

  /// How far the most-behind worker trails its schedule right now.
  uint64_t maxLagNs() const {
    uint64_t Max = 0;
    for (unsigned T = 0; T < Hists.size(); ++T)
      Max = std::max(Max, Lag[T].load(std::memory_order_relaxed));
    return Max;
  }

  /// Runs the window: \p Serve(T, ArrivalNs, Rng) once per due arrival on
  /// worker T's thread; \p OnBegin(BeginNs) once the schedule is anchored,
  /// just before the workers start.
  template <typename ServeFn, typename BeginFn>
  LoadResult run(ServeFn Serve, BeginFn OnBegin) {
    const unsigned Threads = static_cast<unsigned>(Hists.size());
    const PoissonProcess Arrivals(P.RatePerSec / Threads);
    SpinBarrier Start(Threads + 1);
    std::atomic<uint64_t> StartNs{0}, Skipped{0};
    ProtocolCounters Before = ThreadRegistry::instance().totalCounters();

    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        if (P.Pin)
          NumaTopology::pinCurrentThreadToCpu(T % NumaTopology::cpuCount());
        Xoshiro256StarStar Rng(P.Seed * 0x9e3779b97f4a7c15ULL + T + 1);
        Start.arriveAndWait();
        const uint64_t Begin = StartNs.load(std::memory_order_acquire);
        const uint64_t End = Begin + P.DurationNs;
        ArrivalSchedule Sched(Arrivals, Begin, Rng, CatchUpBurstMax);
        for (;;) {
          Sched.boundBacklog(nowNs(), Rng);
          const uint64_t Next = Sched.nextArrivalNs();
          if (Next >= End)
            break;
          uint64_t Now = nowNs();
          Lag[T].store(Now > Next ? Now - Next : 0, std::memory_order_relaxed);
          if (Now < Next)
            waitUntil(Next);
          Sched.advance(Rng);
          Serve(T, Next, Rng);
        }
        Skipped.fetch_add(Sched.skippedArrivals(), std::memory_order_relaxed);
        Lag[T].store(0, std::memory_order_relaxed);
      });

    const uint64_t Begin = nowNs();
    StartNs.store(Begin, std::memory_order_release);
    OnBegin(Begin);
    Start.arriveAndWait();
    for (auto &W : Workers)
      W.join();

    LoadResult R;
    R.SkippedArrivals = Skipped.load(std::memory_order_relaxed);
    LatencyHistogram Merged;
    for (const LatencyHistogram &H : Hists)
      Merged.mergeFrom(H);
    R.Bench.Ops = Merged.count();
    R.Bench.Seconds = static_cast<double>(P.DurationNs) * 1e-9;
    R.Bench.OpsPerSec =
        R.Bench.Seconds > 0 ? static_cast<double>(R.Bench.Ops) / R.Bench.Seconds
                            : 0.0; // --duration-ms=0 must not emit inf/nan
    R.Bench.Delta = countersDelta(Before,
                                  ThreadRegistry::instance().totalCounters());
    R.P50Ns = Merged.quantile(0.50);
    R.P99Ns = Merged.quantile(0.99);
    R.MaxNs = Merged.max();
    return R;
  }

private:
  const SoakParams &P;
  std::vector<LatencyHistogram> Hists;
  std::unique_ptr<std::atomic<uint64_t>[]> Lag;
};

//===----------------------------------------------------------------------===//
// Chaos soak: overload resilience under a seeded fault campaign
//===----------------------------------------------------------------------===//

constexpr unsigned ChaosChurnPerThread = 256;
constexpr std::size_t RetryQueueCap = 64;

/// One chaos worker's retry machinery and inline oracle verdicts.
struct alignas(CacheLineSize) ChaosWorker {
  ChaosWorker(const SoakParams &P, uint64_t BackoffSeed)
      : Budget(P.RetryPerSec, P.RetryBurst, nowNs()),
        Backoff(64, 8192, BackoffSeed) {}

  struct RetryEntry {
    uint64_t Key, AtNs;
    resilience::Deadline D;
  };

  /// Re-offers a cancelled GET of \p Key after a jittered backoff, within
  /// the queue cap and the token budget (no retry storms).
  void offerRetry(uint64_t Key, uint64_t DeadlineNs) {
    if (RetryQ.size() >= RetryQueueCap) {
      ++RetryDropped;
    } else if (!Budget.tryAcquire(nowNs())) {
      ++RetryDenied;
    } else {
      uint64_t At = nowNs() + static_cast<uint64_t>(Backoff.nextSpins()) * 1000;
      RetryQ.push_back(
          {Key, At, resilience::Deadline::fromScheduled(At, DeadlineNs)});
      ++Retries;
    }
  }

  resilience::RetryBudget Budget;
  // The jittered sequence is drawn in "spins" and spent as microseconds
  // of retry delay: same bounded-exponential shape, a unit the retry path
  // can actually wait.
  ExpBackoff Backoff;
  std::deque<RetryEntry> RetryQ; ///< still queued at the end: dropped
  uint64_t ShedCount = 0;
  uint64_t Timeouts = 0; ///< cancelled before touching a shard
  uint64_t Retries = 0;  ///< granted + scheduled retries
  uint64_t RetryDenied = 0;
  uint64_t RetryDropped = 0;
  uint64_t Violations = 0; ///< inline oracle hits (exclusion, pair, churn)
};

/// One fixed-rate soak of \p Policy under the seeded fault campaign.
/// Returns the number of oracle violations (0 is the acceptance bar).
template <typename Policy>
uint64_t runChaosSoak(BenchEnv &Env, JsonReport &Json, const SoakParams &P,
                      const ZipfianSampler &Zipf) {
  kv::ShardedKvStore<Policy> Store(*Env.Ctx, {P.Shards, 64});
  prefill(Store, P);
  const unsigned ShardCount = Store.shardCount();
  const unsigned Threads = static_cast<unsigned>(P.Threads);
  stress::KvOracle Oracle(Store, Threads, ChaosChurnPerThread);

  stress::ChaosConfig CC = P.Chaos;
  CC.Shards = ShardCount;
  CC.DurationNs = P.DurationNs;
  stress::ChaosDirector Director(CC);
  std::atomic<uint64_t> CorruptAttempts{0}, CorruptRejected{0};
  Director.setCorruptRestoreHook([&] {
    // A corrupted warm-image restore attempted while traffic runs: the
    // image layer must reject it (sticky-failure reader -> false) and
    // leave the live lock state untouched. A crash here fails the soak.
    SplitMix64 G(P.Seed ^ (CorruptAttempts.load(std::memory_order_relaxed) +
                           0xBADC0DEull));
    std::vector<uint8_t> Garbage(256);
    for (auto &B : Garbage)
      B = static_cast<uint8_t>(G.next());
    image::ImageReader R(Garbage);
    CorruptAttempts.fetch_add(1, std::memory_order_relaxed);
    if (!image::restoreKvLockState(R, Store))
      CorruptRejected.fetch_add(1, std::memory_order_relaxed);
  });

  std::printf("\n--- %s (chaos soak) ---\n%s", Policy::name(),
              Director.scheduleString().c_str());

  OpenLoop Driver(P);
  std::vector<ChaosWorker> Workers;
  Workers.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back(P, P.Seed + T);

  // Double-buffered per-thread window histograms: workers record into the
  // selected bank, the monitor flips the selector and reads/resets the
  // retired bank (LatencyHistogram's relaxed atomics make the brief
  // overlap a counting blur, not a race).
  resilience::ShedController Shed(P.Shed);
  std::vector<LatencyHistogram> Banks[2]{
      std::vector<LatencyHistogram>(static_cast<std::size_t>(Threads)),
      std::vector<LatencyHistogram>(static_cast<std::size_t>(Threads))};
  std::atomic<uint32_t> BankSel{0};
  std::atomic<bool> MonitorRun{true};
  std::thread Monitor([&] {
    while (MonitorRun.load(std::memory_order_acquire)) {
      uint64_t WindowEnd = nowNs() + P.WindowNs;
      while (MonitorRun.load(std::memory_order_acquire) &&
             nowNs() < WindowEnd)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      uint32_t Old = BankSel.fetch_xor(1, std::memory_order_acq_rel);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      LatencyHistogram Win;
      for (auto &H : Banks[Old]) {
        Win.mergeFrom(H);
        H.reset();
      }
      Shed.onWindow(Win.count() ? Win.quantile(0.99) : 0, Driver.maxLagNs());
    }
  });

  // One admitted request against shard \p S: delayed by any slow-shard
  // fault, recorded into both latency views.
  auto Dispatch = [&](unsigned T, unsigned S, uint64_t DueNs, auto &&Op) {
    if (uint64_t Delay = Director.shardDelayNs(S))
      waitUntil(nowNs() + Delay);
    Op();
    Banks[BankSel.load(std::memory_order_acquire)][T].record(
        Driver.record(T, DueNs));
  };

  // Retries due by now are served before the worker waits for its next
  // arrival, each charged from its own scheduled retry time.
  auto DrainRetries = [&](unsigned T, ChaosWorker &W) {
    while (!W.RetryQ.empty() && W.RetryQ.front().AtNs <= nowNs()) {
      ChaosWorker::RetryEntry E = W.RetryQ.front();
      W.RetryQ.pop_front();
      if (E.D.expired(Director.deadlineNowNs())) {
        ++W.Timeouts; // the retry itself missed its fresh deadline
        continue;
      }
      Dispatch(T, Store.shardOf(E.Key), E.AtNs,
               [&] { (void)Store.get(E.Key); });
      W.Backoff.reset(); // a served retry resets the backoff run
    }
  };

  // Serving an arrival: admission, deadline, then one op of the oracle mix
  // (mutations 8%, scans 4%, point GETs the rest).
  auto Serve = [&](unsigned T, uint64_t Due, Xoshiro256StarStar &Rng) {
    ChaosWorker &W = Workers[T];
    unsigned Roll = static_cast<unsigned>(Rng.nextBounded(100));
    resilience::OpPriority Pri =
        Roll < 8 ? resilience::OpPriority::Mutate
                 : (Roll < 12 ? resilience::OpPriority::Scan
                              : resilience::OpPriority::Get);
    if (!Shed.admit(Pri)) {
      ++W.ShedCount;
    } else if (resilience::Deadline::fromScheduled(Due, P.DeadlineNs)
                   .expired(Director.deadlineNowNs())) {
      // Cancelled before touching a shard, so a retry can never
      // double-apply. Only idempotent GETs are worth re-offering.
      ++W.Timeouts;
      if (Pri == resilience::OpPriority::Get)
        W.offerRetry(Zipf.nextScrambled(Rng), P.DeadlineNs);
    } else if (Roll < 2) {
      // Pair bump under the exclusion token (KvOracle).
      unsigned S = static_cast<unsigned>(Rng.nextBounded(ShardCount));
      Dispatch(T, S, Due, [&] { W.Violations += !Oracle.bumpPair(S, T + 1); });
    } else if (Roll < 8) {
      // Churn flip on an owner-exclusive key (bitmap oracle).
      unsigned I = static_cast<unsigned>(Rng.nextBounded(ChaosChurnPerThread));
      Dispatch(T, Store.shardOf(Oracle.churnKey(T, I)), Due,
               [&] { W.Violations += !Oracle.flipChurn(T, I); });
    } else if (Roll < 12) {
      // Pair read + scan consistency in one read section; the verdict is
      // the closure's return value, so a re-executing policy (SeqLock)
      // stays side-effect-free until validation.
      unsigned S = static_cast<unsigned>(Rng.nextBounded(ShardCount));
      Dispatch(T, S, Due, [&] {
        W.Violations += !Store.readShard(S, [&](const auto &Tab, auto &) {
          return Oracle.pairHolds(Tab, S) && Oracle.scanHolds(Tab);
        });
      });
    } else {
      uint64_t Key = Zipf.nextScrambled(Rng);
      Dispatch(T, Store.shardOf(Key), Due, [&] { (void)Store.get(Key); });
    }
    DrainRetries(T, W);
  };

  LoadResult Run = Driver.run(
      Serve, [&](uint64_t BeginNs) { Director.start(BeginNs); });
  Director.stop();
  MonitorRun.store(false, std::memory_order_release);
  Monitor.join();

  // --- End-of-run oracles (quiescent, so every check is exact) -----------
  uint64_t Violations = 0;
  ChaosWorker Sum(P, 0); // totals over the workers
  for (const ChaosWorker &W : Workers) {
    Violations += W.Violations;
    Sum.ShedCount += W.ShedCount;
    Sum.Timeouts += W.Timeouts;
    Sum.Retries += W.Retries;
    Sum.RetryDenied += W.RetryDenied;
    Sum.RetryDropped += W.RetryDropped + W.RetryQ.size(); // + abandoned
  }
  std::vector<std::string> Failures = Oracle.verify(P.Keys);
  uint64_t Attempts = CorruptAttempts.load(std::memory_order_relaxed);
  uint64_t Rejected = CorruptRejected.load(std::memory_order_relaxed);
  if (Rejected != Attempts)
    Failures.push_back("corrupt warm-image restore was accepted (" +
                       std::to_string(Attempts - Rejected) + " of " +
                       std::to_string(Attempts) + ")");
  for (const std::string &F : Failures)
    std::fprintf(stderr, "chaos ORACLE VIOLATION: %s\n", F.c_str());
  Violations += Failures.size();

  // --- Report: one name/value list feeds stdout and the JSON row --------
  std::vector<JsonReport::Extra> Report = {
      {"offered_per_sec", P.RatePerSec},
      {"admitted_p50_us", usOf(Run.P50Ns)},
      {"admitted_p99_us", usOf(Run.P99Ns)},
      {"admitted_max_us", usOf(Run.MaxNs)},
      {"deadline_us", usOf(P.DeadlineNs)},
      {"degraded_slo_us", usOf(P.DegradedSloNs)},
      {"degraded_slo_met", Run.P99Ns <= P.DegradedSloNs ? 1.0 : 0.0},
      {"shed", static_cast<double>(Sum.ShedCount)},
      {"timeouts", static_cast<double>(Sum.Timeouts)},
      {"retries", static_cast<double>(Sum.Retries)},
      {"retry_denied", static_cast<double>(Sum.RetryDenied)},
      {"retry_dropped", static_cast<double>(Sum.RetryDropped)},
      {"skipped_arrivals", static_cast<double>(Run.SkippedArrivals)},
      {"shed_level_ups", static_cast<double>(Shed.levelUps())},
      {"shed_level_downs", static_cast<double>(Shed.levelDowns())},
      {"degraded_windows", static_cast<double>(Shed.degradedWindows())},
      {"faults_applied", static_cast<double>(Director.faultsApplied())},
      {"corrupt_restores_rejected", static_cast<double>(Rejected)},
      {"oracle_violations", static_cast<double>(Violations)}};
  std::printf("admitted %llu:", static_cast<unsigned long long>(Run.Bench.Ops));
  for (std::size_t I = 0; I < Report.size(); ++I)
    std::printf("%s%s=%.6g", I % 3 ? "  " : "\n  ", Report[I].first.c_str(),
                Report[I].second);
  std::printf("\n");
  Json.add("chaos", Policy::name(), P.Threads, Run.Bench, std::move(Report));
  return Violations;
}

/// Calls \p F.operator()<Policy>() for each policy of the list, in order.
template <typename... Policies, typename Fn> void forEachPolicy(Fn &&F) {
  (F.template operator()<Policies>(), ...);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv,
               {"chaos-gap-ms", "chaos-kinds", "chaos-max-ms", "chaos-min-ms",
                "deadline-us", "degraded-slo-us", "duration-ms", "keys", "pin",
                "policies", "rate", "retry-burst", "retry-rate", "shards",
                "shed-window-ms", "slow-shard-us", "zipf"});
  printBanner("KV service", "sharded store under a seeded fault campaign",
              "beyond the paper: open-loop overload resilience (DESIGN.md "
              "§17);\nno oracle may break under any fault, on any policy.");

  // A duration flag given in \p UnitNs units, returned in ns.
  auto NsFlag = [&](const char *Flag, int64_t Default, uint64_t UnitNs) {
    return static_cast<uint64_t>(Env.Args.getInt(Flag, Default)) * UnitNs;
  };
  constexpr uint64_t Us = 1000, Ms = 1000000;

  SoakParams P;
  P.Shards = static_cast<unsigned>(Env.Args.getInt("shards", 16));
  P.Keys = static_cast<uint64_t>(
      Env.Args.getInt("keys", Env.Quick ? 4096 : 1 << 16));
  P.Zipf = Env.Args.getDouble("zipf", 0.99);
  P.Threads = static_cast<int>(Env.Args.getInt("threads", Env.Quick ? 2 : 4));
  // A fault campaign needs room.
  P.DurationNs = NsFlag("duration-ms", Env.Quick ? 1500 : 5000, Ms);
  P.Pin = Env.Args.getBool("pin", true);
  P.Seed = Env.Seed;
  P.RatePerSec = Env.Args.getDouble("rate", Env.Quick ? 3000 : 15000);
  P.DeadlineNs = NsFlag("deadline-us", Env.Quick ? 50000 : 20000, Us);
  P.DegradedSloNs = NsFlag("degraded-slo-us",
                           static_cast<int64_t>(3 * P.DeadlineNs / Us), Us);
  P.WindowNs = NsFlag("shed-window-ms", 50, Ms);
  P.RetryPerSec = Env.Args.getDouble("retry-rate", 200);
  P.RetryBurst = Env.Args.getDouble("retry-burst", 20);
  P.Chaos.Seed = Env.Seed;
  P.Chaos.MeanGapNs = NsFlag("chaos-gap-ms", 150, Ms);
  P.Chaos.MinEventNs = NsFlag("chaos-min-ms", 30, Ms);
  P.Chaos.MaxEventNs = NsFlag("chaos-max-ms", 100, Ms);
  P.Chaos.SlowShardDelayNs = NsFlag("slow-shard-us", 200, Us);
  P.Chaos.KindMask =
      static_cast<uint32_t>(Env.Args.getInt("chaos-kinds", 0xffffffff));
  // Shed before deadlines blow: breach at half the request budget.
  P.Shed.SloP99Ns = P.DeadlineNs / 2;
  P.Shed.BacklogBreachNs = P.DeadlineNs;

  std::printf("shards=%u keys=%llu zipf=%.2f threads=%d window=%llums pin=%d\n"
              "chaos: deadline %llu us, degraded SLO %llu us, rate %g/s, "
              "shed window %llu ms, retry %.0f/s burst %.0f\n",
              P.Shards, static_cast<unsigned long long>(P.Keys), P.Zipf,
              P.Threads, static_cast<unsigned long long>(P.DurationNs / Ms),
              P.Pin ? 1 : 0, static_cast<unsigned long long>(P.DeadlineNs / Us),
              static_cast<unsigned long long>(P.DegradedSloNs / Us),
              P.RatePerSec, static_cast<unsigned long long>(P.WindowNs / Ms),
              P.RetryPerSec, P.RetryBurst);

  const ZipfianSampler Zipf(P.Keys, P.Zipf);
  // The default is the two adaptive-speculation stacks.
  std::string Policies =
      Env.Args.getString("policies", "Adaptive-SOLERO,BravoRW");
  JsonReport Json("kv_service");
  // Exact comma-token match ("Lock" must not select RWLock or SeqLock).
  const std::string Tokens = "," + Policies + ",";
  auto Wants = [&](const std::string &Name) {
    return Tokens.find("," + Name + ",") != std::string::npos ||
           Tokens.find(",all,") != std::string::npos;
  };

  uint64_t Violations = 0;
  forEachPolicy<TasukiPolicy, RwPolicy, BravoRwPolicy, SoleroPolicy,
                AdaptiveSoleroPolicy, SeqLockPolicy>([&]<typename Policy>() {
    if (Wants(Policy::name()))
      Violations += runChaosSoak<Policy>(Env, Json, P, Zipf);
  });

  const bool JsonOk = Json.write(Env.JsonPath);
  std::printf("\nchaos verdict: %llu oracle violation(s)%s\n",
              static_cast<unsigned long long>(Violations),
              Violations ? " [FAIL]" : " [ok]");
  return (Violations == 0 && JsonOk) ? 0 : 1;
}
