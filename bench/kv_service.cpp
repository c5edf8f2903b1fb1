//===- bench/kv_service.cpp - Open-loop sharded KV service bench ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The service-shaped evaluation the figure benchmarks cannot provide: a
/// sharded KV store (kv/ShardedKvStore.h) guarded by each policy of the
/// lock portfolio, driven by an *open-loop* load generator — Poisson
/// arrivals at a configured offered rate, Zipfian key popularity, a mixed
/// GET/PUT/DELETE/SCAN op stream, optional burst phases — with per-thread
/// log-bucketed latency histograms. Each request is charged from its
/// scheduled arrival time, so queueing delay shows up in the percentiles
/// instead of silently throttling the arrival rate the way closed-loop
/// harnesses do (the BRAVO paper's argument for tail-latency evaluation).
///
/// Both modes run through one driver (OpenLoop) and differ only in how
/// they serve an arrival. The default sweep steps the offered load per
/// policy until p99 blows past the SLO (or completions fall behind
/// arrivals); the last sustainable rate is the saturation throughput.
///
///   kv_service                         # full sweep, all five policies
///   kv_service --quick                 # CI smoke (tiny rates/windows)
///   kv_service --policies=Lock,SOLERO  # subset
///   kv_service --rate=30000 --slo-us=2000 --burst-factor=4
///   kv_service --json=BENCH_kv.json    # machine-readable rows
///   kv_service --checkpoint=kv.img     # write adaptive lock state after
///                                      # the sweeps (warm image, §16)
///   kv_service --restore=kv.img        # rehydrate each policy's per-shard
///                                      # lock state before its sweep
///
/// `--chaos` switches to the resilience soak (DESIGN.md §17): a fixed-rate
/// run under a seeded ChaosDirector fault campaign, with deadline
/// cancellation, token-bucket GET retries, priority load shedding, the
/// stuck-speculation watchdog, and the ShardedKv torture oracles
/// (stress/KvOracle.h: exclusion, pair conservation, scan consistency,
/// churn bitmap, leak, released shard locks) asserted throughout and at the
/// end. Exit code is nonzero on any oracle violation.
///
///   kv_service --chaos --seed=7 --duration-ms=5000 --json=BENCH_chaos.json
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "image/Image.h"
#include "image/Resources.h"
#include "kv/ShardedKvStore.h"
#include "resilience/Deadline.h"
#include "resilience/RetryBudget.h"
#include "resilience/ShedController.h"
#include "resilience/Watchdog.h"
#include "stress/ChaosDirector.h"
#include "stress/KvOracle.h"
#include "support/Backoff.h"
#include "support/CacheLine.h"
#include "support/Clock.h"
#include "support/Distributions.h"
#include "support/LatencyHistogram.h"
#include "support/NumaTopology.h"
#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
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

struct KvBenchParams {
  unsigned Shards = 16;
  uint64_t Keys = 1 << 16;
  double Zipf = 0.99;
  unsigned PutPct = 3;
  unsigned DelPct = 1;
  unsigned ScanPct = 1; // GET is the remainder
  int Threads = 4;
  uint64_t DurationNs = 400ull * 1000 * 1000;
  bool Pin = true;
  uint64_t Seed = 0x5eed;
  double BurstFactor = 1.0; // >1 enables burst phases
  uint64_t BurstPeriodNs = 200ull * 1000 * 1000;
  uint64_t BurstLenNs = 50ull * 1000 * 1000;
};

/// Prefills \p Store with keys [0, P.Keys), the Zipfian sampler's range.
template <typename Store> void prefill(Store &S, const KvBenchParams &P) {
  SplitMix64 Fill(P.Seed);
  for (uint64_t K = 0; K < P.Keys; ++K)
    S.put(K, Fill.next() >> 1);
}

//===----------------------------------------------------------------------===//
// The open-loop driver
//===----------------------------------------------------------------------===//

struct LoadResult {
  BenchResult Bench; ///< Ops = served, OpsPerSec = achieved
  uint64_t P50Ns = 0, P99Ns = 0, P999Ns = 0, MaxNs = 0;
  double HitRatio = 0;          ///< sweep only
  uint64_t SkippedArrivals = 0; ///< shed by the bounded catch-up burst
};

/// One open-loop run over P.DurationNs at a fixed offered rate. Each of
/// P.Threads pinned workers paces a Poisson share of the rate through an
/// ArrivalSchedule and hands every due arrival to the caller's server.
/// The server records each request it serves through record(), which
/// charges latency from the request's scheduled time: a worker running
/// behind pays its backlog in the tail.
class OpenLoop {
public:
  OpenLoop(const KvBenchParams &P, double RatePerSec,
           uint64_t CatchUpBurstMax = 1024)
      : P(P), RatePerSec(RatePerSec), CatchUpBurstMax(CatchUpBurstMax),
        Hists(static_cast<std::size_t>(P.Threads)),
        Lag(std::make_unique<std::atomic<uint64_t>[]>(Hists.size())) {}
  // Workers and the chaos shed monitor hold its address.
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
    const PoissonProcess Arrivals(RatePerSec / Threads);
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
          // Bounded catch-up: a stalled worker issues at most the last
          // CatchUpBurstMax arrivals late and *counts* the rest as
          // skipped (never silently re-anchors the schedule).
          Sched.boundBacklog(nowNs(), Rng);
          const uint64_t Next = Sched.nextArrivalNs();
          if (Next >= End)
            break;
          uint64_t Now = nowNs();
          Lag[T].store(Now > Next ? Now - Next : 0, std::memory_order_relaxed);
          if (Now < Next)
            waitUntil(Next);
          // Burst phases compress the arrival gaps by BurstFactor.
          bool Burst = P.BurstFactor > 1.0 &&
                       (Next - Begin) % P.BurstPeriodNs < P.BurstLenNs;
          Sched.advance(Rng, Burst ? P.BurstFactor : 1.0);
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
    R.P999Ns = Merged.quantile(0.999);
    R.MaxNs = Merged.max();
    return R;
  }

private:
  const KvBenchParams &P;
  double RatePerSec;
  uint64_t CatchUpBurstMax;
  std::vector<LatencyHistogram> Hists;
  std::unique_ptr<std::atomic<uint64_t>[]> Lag;
};

//===----------------------------------------------------------------------===//
// Rate sweep (default): the Zipfian GET/PUT/DELETE/SCAN mix
//===----------------------------------------------------------------------===//

struct SweepParams {
  double BaseRate = 30000;
  double Factor = 1.6;
  int Steps = 7;
  uint64_t SloNs = 2000ull * 1000; // p99 SLO
};

/// One sweep step: each arrival is served as one op of the mix.
template <typename Store>
LoadResult runSweepStep(Store &S, const KvBenchParams &P,
                        const ZipfianSampler &Zipf, double OfferedPerSec) {
  struct alignas(CacheLineSize) GetCounts {
    uint64_t Gets = 0, Hits = 0;
  };
  std::vector<GetCounts> Counts(static_cast<std::size_t>(P.Threads));
  OpenLoop Driver(P, OfferedPerSec);
  auto Serve = [&](unsigned T, uint64_t Due, Xoshiro256StarStar &Rng) {
    unsigned Roll = static_cast<unsigned>(Rng.nextBounded(100));
    if (Roll < P.PutPct) {
      S.put(Zipf.nextScrambled(Rng), Rng.next() >> 1);
    } else if (Roll < P.PutPct + P.DelPct) {
      S.remove(Zipf.nextScrambled(Rng));
    } else if (Roll < P.PutPct + P.DelPct + P.ScanPct) {
      // The scan reads atomics, so it cannot be optimized away.
      (void)S.scanShard(
          static_cast<unsigned>(Rng.nextBounded(S.shardCount())));
    } else {
      ++Counts[T].Gets;
      if (S.get(Zipf.nextScrambled(Rng)).has_value())
        ++Counts[T].Hits;
    }
    Driver.record(T, Due);
  };
  LoadResult R = Driver.run(Serve, [](uint64_t) {});
  uint64_t Gets = 0, Hits = 0;
  for (const GetCounts &C : Counts) {
    Gets += C.Gets;
    Hits += C.Hits;
  }
  R.HitRatio = safeRatio(Hits, Gets);
  return R;
}

/// Runs one policy: prefill once, then step the offered load until the
/// SLO breaks. Emits one JSON row per step plus a saturation summary row
/// when at least one step met the SLO.
template <typename Policy>
void runSweep(BenchEnv &Env, JsonReport &Json, const KvBenchParams &P,
              const SweepParams &Sweep, const ZipfianSampler &Zipf,
              image::ImageBuilder *Ckpt, const image::LoadedImage *Warm) {
  kv::ShardedKvStore<Policy> Store(*Env.Ctx, {P.Shards, 64});
  prefill(Store, P);

  std::printf("\n--- %s ---\n", Policy::name());
  // Rehydrate the per-shard adaptive lock state (SOLERO controllers,
  // BRAVO bias) from the warm image before the sweep; a missing or
  // mismatched blob just means this policy sweeps cold.
  const std::string BlobName = std::string("kv.") + Policy::name();
  if (Warm && Warm->loaded()) {
    const std::vector<uint8_t> *Blob = Warm->blob(BlobName);
    bool Restored = false;
    if (Blob) {
      image::ImageReader R(*Blob);
      Restored = image::restoreKvLockState(R, Store);
    }
    std::printf("warm image: %s %s\n", BlobName.c_str(),
                Restored ? "restored (per-shard lock state rehydrated)"
                         : (Blob ? "rejected; sweeping cold"
                                 : "not present; sweeping cold"));
  }
  TablePrinter T({"offered/s", "achieved/s", "p50 us", "p99 us", "p999 us",
                  "max us", "rmw/op", "hit%", "verdict"});
  double Rate = Sweep.BaseRate;
  std::optional<LoadResult> Sat; // the last step that met the SLO
  bool Saturated = false;
  for (int Step = 0; Step < Sweep.Steps; ++Step) {
    LoadResult R = runSweepStep(Store, P, Zipf, Rate);
    bool MetSlo = R.P99Ns <= Sweep.SloNs && R.Bench.OpsPerSec >= 0.9 * Rate;
    T.addRow({TablePrinter::num(Rate, 0),
              TablePrinter::num(R.Bench.OpsPerSec, 0),
              TablePrinter::num(usOf(R.P50Ns), 1),
              TablePrinter::num(usOf(R.P99Ns), 1),
              TablePrinter::num(usOf(R.P999Ns), 1),
              TablePrinter::num(usOf(R.MaxNs), 1),
              TablePrinter::num(R.Bench.rmwPerOp(), 2),
              TablePrinter::percent(R.HitRatio, 1),
              MetSlo ? "ok" : "SATURATED"});
    Json.add("sweep", Policy::name(), P.Threads, R.Bench,
             {{"offered_per_sec", Rate},
              {"p50_us", usOf(R.P50Ns)},
              {"p99_us", usOf(R.P99Ns)},
              {"p999_us", usOf(R.P999Ns)},
              {"max_us", usOf(R.MaxNs)},
              {"hit_ratio", R.HitRatio},
              {"skipped_arrivals", static_cast<double>(R.SkippedArrivals)}});
    if (!MetSlo) {
      Saturated = true;
      break;
    }
    Sat = R;
    Rate *= Sweep.Factor;
  }
  T.print();
  if (!Sat) {
    std::printf("%s saturation: not reached; the first step already misses "
                "the p99 SLO of %s us [lower --rate]\n",
                Policy::name(),
                TablePrinter::num(usOf(Sweep.SloNs), 0).c_str());
  } else {
    std::printf("%s saturation: %s ops/s within p99 SLO of %s us%s "
                "(GET-path rmw/op %.2f, %llu shard resizes)\n",
                Policy::name(),
                TablePrinter::num(Sat->Bench.OpsPerSec, 0).c_str(),
                TablePrinter::num(usOf(Sweep.SloNs), 0).c_str(),
                Saturated ? "" : " [sweep exhausted, raise --sweep-steps]",
                Sat->Bench.rmwPerOp(),
                static_cast<unsigned long long>(Store.totalResizes()));
    Json.add("saturation", Policy::name(), P.Threads, Sat->Bench,
             {{"sat_ops_per_sec", Sat->Bench.OpsPerSec},
              {"slo_us", usOf(Sweep.SloNs)},
              {"p99_us", usOf(Sat->P99Ns)}});
  }
  // All workers are joined (quiescent), so the controllers can be
  // snapshotted into the warm image for the next run.
  if (Ckpt)
    Ckpt->addBlob(BlobName, image::snapshotKvLockState(Store));
}

//===----------------------------------------------------------------------===//
// Chaos soak (--chaos): overload resilience under a seeded fault campaign
//===----------------------------------------------------------------------===//

struct ChaosSoakParams {
  double RatePerSec = 15000;           ///< fixed offered rate (no sweep)
  uint64_t DeadlineNs = 20'000'000;    ///< per-request budget from arrival
  uint64_t DegradedSloNs = 60'000'000; ///< admitted-p99 bound under faults
  uint64_t WindowNs = 50'000'000;      ///< shed monitor window
  double RetryPerSec = 200;            ///< per-worker retry token rate
  double RetryBurst = 20;
  uint64_t CatchUpBurstMax = 512; ///< arrival backlog bound (mean gaps)
  stress::ChaosConfig Chaos;
  resilience::ShedConfig Shed;
  resilience::WatchdogConfig Wd;
};

constexpr unsigned ChaosChurnPerThread = 256;
constexpr std::size_t RetryQueueCap = 64;

/// One chaos worker's retry machinery and inline oracle verdicts.
struct alignas(CacheLineSize) ChaosWorker {
  ChaosWorker(const ChaosSoakParams &CS, uint64_t BackoffSeed)
      : Budget(CS.RetryPerSec, CS.RetryBurst, nowNs()),
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
uint64_t runChaosSoak(BenchEnv &Env, JsonReport &Json, const KvBenchParams &P,
                      const ZipfianSampler &Zipf, const ChaosSoakParams &CS) {
  kv::ShardedKvStore<Policy> Store(*Env.Ctx, {P.Shards, 64});
  prefill(Store, P);
  const unsigned ShardCount = Store.shardCount();
  const unsigned Threads = static_cast<unsigned>(P.Threads);
  stress::KvOracle Oracle(Store, Threads, ChaosChurnPerThread);

  // The watchdog guards each shard's elision controller or BRAVO bias,
  // where the policy has one; every policy gets the stall detector.
  resilience::SpeculationWatchdog Wd(CS.Wd);
  for (unsigned S = 0; S < ShardCount; ++S) {
    auto &Lock = Store.shardPolicy(S);
    if constexpr (requires { Lock.protocol().controller(); })
      Wd.watchController(&Lock.protocol().controller());
    else if constexpr (requires { Lock.protocol().revocations(); })
      Wd.watchBravo(&Lock.protocol());
  }

  stress::ChaosConfig CC = CS.Chaos;
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

  OpenLoop Driver(P, CS.RatePerSec, CS.CatchUpBurstMax);
  std::vector<ChaosWorker> Workers;
  Workers.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back(CS, P.Seed + T);

  // Double-buffered per-thread window histograms: workers record into the
  // selected bank, the monitor flips the selector and reads/resets the
  // retired bank (LatencyHistogram's relaxed atomics make the brief
  // overlap a counting blur, not a race).
  resilience::ShedController Shed(CS.Shed);
  std::vector<LatencyHistogram> Banks[2]{
      std::vector<LatencyHistogram>(static_cast<std::size_t>(Threads)),
      std::vector<LatencyHistogram>(static_cast<std::size_t>(Threads))};
  std::atomic<uint32_t> BankSel{0};
  std::atomic<bool> MonitorRun{true};
  std::thread Monitor([&] {
    while (MonitorRun.load(std::memory_order_acquire)) {
      uint64_t WindowEnd = nowNs() + CS.WindowNs;
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

  // One admitted request against shard \p S: bracketed for the watchdog,
  // delayed by any slow-shard fault, recorded into both latency views.
  auto Dispatch = [&](unsigned T, unsigned S, uint64_t DueNs, auto &&Op) {
    const uint32_t Slot = ThreadRegistry::current().slot();
    Wd.opBegin(Slot, nowNs());
    if (uint64_t Delay = Director.shardDelayNs(S))
      waitUntil(nowNs() + Delay);
    Op();
    Wd.opEnd(Slot);
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

  // The chaos way of serving an arrival: admission, deadline, then one op
  // of the oracle mix (mutations 8%, scans 4%, point GETs the rest).
  auto Serve = [&](unsigned T, uint64_t Due, Xoshiro256StarStar &Rng) {
    ChaosWorker &W = Workers[T];
    unsigned Roll = static_cast<unsigned>(Rng.nextBounded(100));
    resilience::OpPriority Pri =
        Roll < 8 ? resilience::OpPriority::Mutate
                 : (Roll < 12 ? resilience::OpPriority::Scan
                              : resilience::OpPriority::Get);
    if (!Shed.admit(Pri)) {
      ++W.ShedCount;
    } else if (resilience::Deadline::fromScheduled(Due, CS.DeadlineNs)
                   .expired(Director.deadlineNowNs())) {
      // Cancelled before touching a shard, so a retry can never
      // double-apply. Only idempotent GETs are worth re-offering.
      ++W.Timeouts;
      if (Pri == resilience::OpPriority::Get)
        W.offerRetry(Zipf.nextScrambled(Rng), CS.DeadlineNs);
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

  Wd.start();
  LoadResult Run = Driver.run(
      Serve, [&](uint64_t BeginNs) { Director.start(BeginNs); });
  Director.stop();
  MonitorRun.store(false, std::memory_order_release);
  Monitor.join();
  Wd.stop();

  // --- End-of-run oracles (quiescent, so every check is exact) -----------
  uint64_t Violations = 0;
  ChaosWorker Sum(CS, 0); // totals over the workers
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
  for (const auto &Diag : Wd.diagnostics())
    std::printf("%s\n", Diag.render().c_str());
  resilience::SpeculationWatchdog::Stats WS = Wd.stats();
  std::vector<JsonReport::Extra> Report = {
      {"offered_per_sec", CS.RatePerSec},
      {"admitted_p50_us", usOf(Run.P50Ns)},
      {"admitted_p99_us", usOf(Run.P99Ns)},
      {"admitted_max_us", usOf(Run.MaxNs)},
      {"deadline_us", usOf(CS.DeadlineNs)},
      {"degraded_slo_us", usOf(CS.DegradedSloNs)},
      {"degraded_slo_met", Run.P99Ns <= CS.DegradedSloNs ? 1.0 : 0.0},
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
      {"wd_stalls", static_cast<double>(WS.StallsDetected)},
      {"wd_failure_storms", static_cast<double>(WS.FailureStorms)},
      {"wd_revocation_storms", static_cast<double>(WS.RevocationStorms)},
      {"wd_forced_disables", static_cast<double>(WS.ForcedDisables)},
      {"wd_forced_revocations", static_cast<double>(WS.ForcedRevocations)},
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
               {"burst-factor", "burst-len-ms", "burst-period-ms", "chaos",
                "chaos-gap-ms", "chaos-kinds", "chaos-max-ms", "chaos-min-ms",
                "checkpoint", "deadline-us", "degraded-slo-us", "del",
                "duration-ms", "keys", "pin", "policies", "put", "rate",
                "restore", "retry-burst", "retry-rate", "scan", "shards",
                "shed-window-ms", "slo-us", "slow-shard-us", "stall-bound-ms",
                "sweep-factor", "sweep-steps", "zipf"});
  printBanner(
      "KV service", "sharded store under open-loop Poisson/Zipfian load",
      "beyond the paper: service-style tail-latency evaluation (ROADMAP "
      "item 1);\nread-side elision/bias should hold p99 and saturation "
      "above the plain Lock.");

  // A duration flag given in \p UnitNs units, returned in ns.
  auto NsFlag = [&](const char *Flag, int64_t Default, uint64_t UnitNs) {
    return static_cast<uint64_t>(Env.Args.getInt(Flag, Default)) * UnitNs;
  };
  constexpr uint64_t Us = 1000, Ms = 1000000;

  KvBenchParams P;
  P.Shards = static_cast<unsigned>(Env.Args.getInt("shards", 16));
  P.Keys = static_cast<uint64_t>(
      Env.Args.getInt("keys", Env.Quick ? 4096 : 1 << 16));
  P.Zipf = Env.Args.getDouble("zipf", 0.99);
  P.PutPct = static_cast<unsigned>(Env.Args.getInt("put", 3));
  P.DelPct = static_cast<unsigned>(Env.Args.getInt("del", 1));
  P.ScanPct = static_cast<unsigned>(Env.Args.getInt("scan", 1));
  P.Threads = static_cast<int>(Env.Args.getInt("threads", Env.Quick ? 2 : 4));
  P.DurationNs = NsFlag("duration-ms", Env.Quick ? 60 : 400, Ms);
  P.Pin = Env.Args.getBool("pin", true);
  P.Seed = Env.Seed;
  P.BurstFactor = Env.Args.getDouble("burst-factor", 1.0);
  P.BurstPeriodNs = NsFlag("burst-period-ms", 200, Ms);
  P.BurstLenNs = NsFlag("burst-len-ms", 50, Ms);
  SOLERO_CHECK(P.PutPct + P.DelPct + P.ScanPct <= 100,
               "op mix exceeds 100 percent");

  SweepParams Sweep;
  Sweep.BaseRate = Env.Args.getDouble("rate", Env.Quick ? 4000 : 30000);
  Sweep.Factor = Env.Args.getDouble("sweep-factor", 1.6);
  Sweep.Steps = static_cast<int>(
      Env.Args.getInt("sweep-steps", Env.Quick ? 2 : 7));
  Sweep.SloNs = NsFlag("slo-us", Env.Quick ? 50000 : 2000, Us);

  std::printf("shards=%u keys=%llu zipf=%.2f mix=GET %u%% / PUT %u%% / "
              "DEL %u%% / SCAN %u%% threads=%d\nwindow=%llums "
              "burst-factor=%.1f pin=%d sweep: %g ops/s x%.2f, %d steps, "
              "p99 SLO %llu us\n",
              P.Shards, static_cast<unsigned long long>(P.Keys), P.Zipf,
              100 - P.PutPct - P.DelPct - P.ScanPct, P.PutPct, P.DelPct,
              P.ScanPct, P.Threads,
              static_cast<unsigned long long>(P.DurationNs / 1000000),
              P.BurstFactor, P.Pin ? 1 : 0, Sweep.BaseRate, Sweep.Factor,
              Sweep.Steps,
              static_cast<unsigned long long>(Sweep.SloNs / 1000));

  const bool ChaosMode =
      Env.Args.has("chaos") && Env.Args.getBool("chaos", true);
  const ZipfianSampler Zipf(P.Keys, P.Zipf);
  // The chaos soak defaults to the two adaptive-speculation stacks (the
  // states the watchdog guards); the sweep keeps its portfolio default.
  std::string Policies = Env.Args.getString(
      "policies", ChaosMode ? "Adaptive-SOLERO,BravoRW"
                            : "Lock,RWLock,BravoRW,SOLERO,SeqLock");
  JsonReport Json("kv_service");
  // Exact comma-token match ("Lock" must not select RWLock or SeqLock).
  const std::string Tokens = "," + Policies + ",";
  auto Wants = [&](const std::string &Name) {
    return Tokens.find("," + Name + ",") != std::string::npos ||
           Tokens.find(",all,") != std::string::npos;
  };

  ChaosSoakParams CS;
  const std::string CkptPath = Env.Args.getString("checkpoint", "");
  const std::string RestPath = Env.Args.getString("restore", "");
  image::ImageBuilder Builder;
  image::ImageBuilder *Ckpt = CkptPath.empty() ? nullptr : &Builder;
  image::LoadedImage Warm;
  if (ChaosMode) {
    if (!Env.Args.has("duration-ms")) // a fault campaign needs room
      P.DurationNs = (Env.Quick ? 1500 : 5000) * Ms;
    P.BurstFactor = 1.0; // the soak offers a fixed rate
    CS.RatePerSec = Env.Args.getDouble("rate", Env.Quick ? 3000 : 15000);
    CS.DeadlineNs = NsFlag("deadline-us", Env.Quick ? 50000 : 20000, Us);
    CS.DegradedSloNs = NsFlag(
        "degraded-slo-us", static_cast<int64_t>(3 * CS.DeadlineNs / Us), Us);
    CS.WindowNs = NsFlag("shed-window-ms", 50, Ms);
    CS.RetryPerSec = Env.Args.getDouble("retry-rate", 200);
    CS.RetryBurst = Env.Args.getDouble("retry-burst", 20);
    CS.Chaos.Seed = Env.Seed;
    CS.Chaos.MeanGapNs = NsFlag("chaos-gap-ms", 150, Ms);
    CS.Chaos.MinEventNs = NsFlag("chaos-min-ms", 30, Ms);
    CS.Chaos.MaxEventNs = NsFlag("chaos-max-ms", 100, Ms);
    CS.Chaos.SlowShardDelayNs = NsFlag("slow-shard-us", 200, Us);
    CS.Chaos.KindMask = static_cast<uint32_t>(
        Env.Args.getInt("chaos-kinds", 0xffffffff));
    // Shed before deadlines blow: breach at half the request budget.
    CS.Shed.SloP99Ns = CS.DeadlineNs / 2;
    CS.Shed.BacklogBreachNs = CS.DeadlineNs;
    CS.Wd.StallBoundNs = NsFlag("stall-bound-ms", 100, Ms);
    std::printf("chaos: deadline %llu us, degraded SLO %llu us, rate %g/s, "
                "shed window %llu ms, retry %.0f/s burst %.0f\n",
                static_cast<unsigned long long>(CS.DeadlineNs / 1000),
                static_cast<unsigned long long>(CS.DegradedSloNs / 1000),
                CS.RatePerSec,
                static_cast<unsigned long long>(CS.WindowNs / 1000000),
                CS.RetryPerSec, CS.RetryBurst);
  } else if (!RestPath.empty()) {
    image::Diagnostic LoadDiag;
    Warm = image::LoadedImage::fromFile(RestPath, LoadDiag);
    if (!LoadDiag.ok()) // degrade to a cold run, never crash
      std::printf("warm image: %s\n", LoadDiag.render().c_str());
  }
  const image::LoadedImage *WarmP = Warm.loaded() ? &Warm : nullptr;

  // The one policy list both modes select from. Adaptive-SOLERO is off
  // the sweep's default list; it carries the richest controller state.
  uint64_t Violations = 0;
  forEachPolicy<TasukiPolicy, RwPolicy, BravoRwPolicy, SoleroPolicy,
                AdaptiveSoleroPolicy, SeqLockPolicy>([&]<typename Policy>() {
    if (!Wants(Policy::name()))
      return;
    if (ChaosMode)
      Violations += runChaosSoak<Policy>(Env, Json, P, Zipf, CS);
    else
      runSweep<Policy>(Env, Json, P, Sweep, Zipf, Ckpt, WarmP);
  });

  const bool JsonOk = Json.write(Env.JsonPath);
  if (ChaosMode) {
    std::printf("\nchaos verdict: %llu oracle violation(s)%s\n",
                static_cast<unsigned long long>(Violations),
                Violations ? " [FAIL]" : " [ok]");
    return (Violations == 0 && JsonOk) ? 0 : 1;
  }
  if (Ckpt) {
    image::Diagnostic D;
    if (Builder.writeFile(CkptPath, D))
      std::printf("\ncheckpoint: wrote warm image (%zu policy blobs) to %s\n",
                  Builder.blobCount(), CkptPath.c_str());
    else
      std::fprintf(stderr, "checkpoint: %s\n", D.render().c_str());
  }
  return JsonOk ? 0 : 1;
}
