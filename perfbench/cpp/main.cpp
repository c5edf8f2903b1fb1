//===- perfbench/cpp/main.cpp - The repository benchmark ----------------===//
///
/// \file
/// Closed-loop benchmark of the sharded KV store (src/kv) and the CSIR guest
/// runtime (src/jit) under three lock policies: Lock (TasukiPolicy), BravoRW
/// (BravoRwPolicy) and SOLERO (SoleroPolicy). The interpreter has no BRAVO
/// mode, so the guest workload's BRAVO row runs the config object as native
/// code under BravoRwPolicy.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Each client thread is pinned to its own CPU and issues its next op only
/// after the previous one returned. A run sets every policy up several
/// times, in batches spread over the run (setup_s is the median), warms
/// each policy up, then interleaves measured rounds of the policies; every
/// reported figure is the median over that policy's rounds. With --trace 1,
/// half of the measured rounds are traced: sampled requests record spans
/// around each call into a layer and the ledger of those spans gives the
/// per-layer metrics, while the untraced half gives the counters and the
/// tracing overhead.
///
/// The last line of stdout is one JSON object: correct, attempted, failed
/// and the metrics. The process exits 1 when any output oracle failed.
///
//===----------------------------------------------------------------------===//

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "Exec.h"
#include "GuestPrograms.h"
#include "Measure.h"
#include "Trace.h"
#include "Workload.h"
#include "kv/ShardedKvStore.h"
#include "runtime/RuntimeContext.h"
#include "runtime/ThreadRegistry.h"
#include "support/NumaTopology.h"
#include "workloads/LockPolicies.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

using namespace perfbench;
using solero::ProtocolCounters;
using solero::RelaxedCounter;

namespace {

// --- Run shape ----------------------------------------------------------

/// Measured rounds per policy and pass; figures are medians over them.
constexpr unsigned Rounds = 20;
/// Unrecorded lead-in of every round, to re-warm caches after the other
/// policies' rounds.
constexpr double RoundWarmSeconds = 0.03;
/// Warm-up of each policy before its first round: fills caches, arms BRAVO
/// bias, and lets the churn workload's tables reach their steady capacity.
constexpr double PolicyWarmSeconds = 0.4;
/// Set-up is timed in SetupBatches batches spread over the run: one before
/// the warm-up, the others between measured rounds, because the host's
/// speed drifts over tenths of a second. A batch builds each policy at
/// least once, more until its share of SetupBudgetSeconds was timed or its
/// share of MaxSetups builds was made.
constexpr unsigned SetupBatches = 5, MaxSetups = 200;
constexpr double SetupBudgetSeconds = 0.25;
/// One sampled request in TraceSampleEvery is traced.
constexpr uint32_t TraceSampleEvery = 32;
constexpr std::size_t SpanBufferCapacity = 1 << 19;
/// Client threads: one per CPU, leaving one CPU for the main thread and the
/// OS, capped at MaxClients.
constexpr unsigned MaxClients = 3;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               Msg);
  for (const WorkloadSpec &W : workloads())
    std::fprintf(stderr, " %s", W.Name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      if (!(O.Seconds > 0 && O.Seconds <= 60))
        usage("--seconds must be in (0, 60]");
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace must be 0 or 1");
      O.Trace = Val == "1";
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      usage(("malformed value for " + Flag).c_str());
  }
  if (!findWorkload(O.Workload))
    usage(("unknown workload '" + O.Workload + "'").c_str());
  return O;
}

std::vector<unsigned> allowedCpus() {
  std::vector<unsigned> Cpus;
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0)
    for (unsigned C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Mask))
        Cpus.push_back(C);
  if (Cpus.empty())
    Cpus.push_back(0);
  return Cpus;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// --- Counter schema -------------------------------------------------------

struct CounterField {
  const char *Name;
  RelaxedCounter ProtocolCounters::*Member;
};

#define PB_FIELD(F) {#F, &ProtocolCounters::F}
constexpr CounterField CounterFields[] = {
    PB_FIELD(WriteEntries),      PB_FIELD(ReadOnlyEntries),
    PB_FIELD(AtomicRmws),        PB_FIELD(LockWordStores),
    PB_FIELD(ElisionAttempts),   PB_FIELD(ElisionSuccesses),
    PB_FIELD(ElisionFailures),   PB_FIELD(Fallbacks),
    PB_FIELD(FaultRetries),      PB_FIELD(AsyncAborts),
    PB_FIELD(Inflations),        PB_FIELD(Deflations),
    PB_FIELD(FlcWaits),          PB_FIELD(ElisionSkips),
    PB_FIELD(SpecRetries),       PB_FIELD(ThrottledAttempts),
    PB_FIELD(ReprobeAttempts),   PB_FIELD(CtrlThrottles),
    PB_FIELD(CtrlDisables),      PB_FIELD(CtrlReprobes),
    PB_FIELD(CtrlReenables),
};
#undef PB_FIELD
constexpr std::size_t CounterCount = std::size(CounterFields);
static_assert(sizeof(ProtocolCounters) == CounterCount * sizeof(RelaxedCounter),
              "ProtocolCounters gained a field: add it to CounterFields");

using CounterValues = std::array<uint64_t, CounterCount>;

CounterValues counterSnapshot() {
  ProtocolCounters C = solero::ThreadRegistry::instance().totalCounters();
  CounterValues V{};
  for (std::size_t I = 0; I < CounterCount; ++I)
    V[I] = (C.*CounterFields[I].Member).value();
  return V;
}

uint64_t counterOf(const CounterValues &V, const char *Name) {
  for (std::size_t I = 0; I < CounterCount; ++I)
    if (!std::strcmp(CounterFields[I].Name, Name))
      return V[I];
  return 0;
}

/// Store-level gauges read between rounds (workers idle).
struct StoreGauges {
  uint64_t Resizes = 0;
  uint64_t Revocations = 0;
  uint64_t BiasedShards = 0;
  uint64_t RetiredPending = 0;
  uint64_t PoolLiveCells = 0;
};

// --- Per-policy benches ---------------------------------------------------

/// Latency classes: point reads, mutations, scans.
enum LatClass { LatRead, LatWrite, LatScan, LatClassCount };

LatClass latClassOf(OpKind K) {
  switch (K) {
  case OpKind::Get:
  case OpKind::GuestRead:
    return LatRead;
  case OpKind::Scan:
    return LatScan;
  default:
    return LatWrite;
  }
}

/// One client's state for one policy: its op stream (continued across
/// rounds), its oracle tallies, and the current round's measurements.
/// Written on every op by its own client only; the alignment keeps the
/// clients' states off each other's cache lines and adjacent-line pairs.
struct alignas(128) ClientState {
  ClientState(const WorkloadSpec &W, uint64_t Seed, unsigned Client,
              std::shared_ptr<const solero::ZipfianSampler> Zipf)
      : Stream(W, Seed, Client, std::move(Zipf)) {}
  OpStream Stream;
  ClientTally Tally;
  std::array<TickHistogram, LatClassCount> Hist;
  uint64_t RoundOps = 0;      ///< measured ops
  uint64_t RoundTicks = 0;    ///< measured window
  uint64_t RoundAllOps = 0;   ///< including the round's lead-in
  uint64_t RequestSeq = 0;
};

struct RoundPlan {
  uint64_t WarmEnd = 0; ///< tick at which recording starts
  uint64_t End = 0;     ///< tick at which the round ends
  bool Record = false;
  bool Traced = false;
};

class PolicyBench {
public:
  PolicyBench(const char *Prefix, bool Solero) : Prefix(Prefix), Solero(Solero) {}
  virtual ~PolicyBench() = default;

  /// Builds a fresh instance and returns the seconds the build took. With
  /// \p Keep the previous instance is torn down first and the new one is
  /// kept for the run; without, the new one is discarded after timing.
  virtual double setupOnce(bool Keep) = 0;
  /// Runs one round on the calling client thread.
  virtual void runRound(unsigned Client, const RoundPlan &P, SpanBuffer *B) = 0;
  virtual StoreGauges gauges() = 0;
  /// End-of-run oracles with the program quiescent; prints any violation.
  virtual bool finalChecks() = 0;

  std::vector<ClientState> Clients;
  const char *Prefix;
  const bool Solero;
};

/// The closed loop of one client for one round: draw an op, time the
/// call, record, repeat until the plan's deadline. \p Exec(Traced, Op,
/// Buffer, Lat) runs one op; \p Traced is a std::bool_constant. Traced
/// rounds record spans for one request in TraceSampleEvery.
template <typename ExecFn>
void clientRound(ClientState &C, const RoundPlan &P, SpanBuffer *B,
                 ExecFn &&Exec) {
  for (TickHistogram &H : C.Hist)
    H.reset();
  uint64_t Now = ticks(), Lat = 0, Start = Now;
  bool Recording = false;
  uint64_t Ops = 0, AllOps = 0;
  while (Now < P.End) {
    if (!Recording && P.Record && Now >= P.WarmEnd) {
      Recording = true;
      Start = Now;
      Ops = 0;
    }
    Op O;
    if (P.Traced) {
      SpanBuffer *Sampled =
          ++C.RequestSeq % TraceSampleEvery == 0 &&
                  B->beginRequest(static_cast<uint32_t>(C.RequestSeq))
              ? B
              : nullptr;
      SpanScope Req(Sampled, SpRequest);
      {
        SpanScope Gen(Sampled, SpGen);
        O = C.Stream.next();
      }
      Exec(std::true_type{}, O, Sampled, Lat);
    } else {
      O = C.Stream.next();
      Exec(std::false_type{}, O, nullptr, Lat);
    }
    if (Recording)
      C.Hist[latClassOf(O.Kind)].record(Lat);
    ++Ops;
    ++AllOps;
    Now = ticks();
  }
  C.RoundOps = Recording ? Ops : 0;
  C.RoundTicks = Recording ? Now - Start : 0;
  C.RoundAllOps = AllOps;
}

template <typename Policy>
class KvBench final : public PolicyBench {
  using Store = solero::kv::ShardedKvStore<Policy>;

public:
  KvBench(const char *Prefix, solero::RuntimeContext &Ctx,
          const WorkloadSpec &W, uint64_t Seed)
      : PolicyBench(Prefix, std::is_same_v<Policy, solero::SoleroPolicy>),
        Ctx(Ctx), W(W), Seed(Seed) {}

  double setupOnce(bool Keep) override {
    if (Keep)
      Instance.reset();
    const uint64_t T0 = steadyNs();
    solero::kv::KvStoreConfig C;
    C.Shards = KvShards;
    C.InitialShardCapacity = KvInitialShardCapacity;
    auto S = std::make_unique<Store>(Ctx, C);
    uint64_t N = 0;
    for (uint64_t K = 0; K < W.Keys; ++K)
      if (prefilled(W, Seed, K)) {
        S->put(K, taggedValue(K, 0));
        ++N;
      }
    const double Secs = double(steadyNs() - T0) * 1e-9;
    if (!Keep)
      return Secs;
    Instance = std::move(S);
    Prefilled = N;
    Expect.ShardLive.clear();
    Expect.NoMisses = W.PrefillShare >= 1.0 && W.RemovePct == 0;
    if (W.ScanPct) {
      SOLERO_CHECK(W.PrefillShare >= 1.0 && W.RemovePct == 0,
                   "scan oracle needs a fixed key set");
      Expect.ShardLive.assign(KvShards, 0);
      for (unsigned Sh = 0; Sh < KvShards; ++Sh)
        Expect.ShardLive[Sh] = Instance->shardTable(Sh).liveCount();
    }
    return Secs;
  }

  void runRound(unsigned Client, const RoundPlan &P, SpanBuffer *B) override {
    ClientState &C = Clients[Client];
    clientRound(C, P, B, [&](auto Traced, const Op &O, SpanBuffer *Buf,
                             uint64_t &Lat) {
      execKv<decltype(Traced)::value>(*Instance, O, Expect, C.Tally, Buf, Lat);
    });
  }

  StoreGauges gauges() override {
    StoreGauges G;
    G.Resizes = Instance->totalResizes();
    G.RetiredPending = Instance->epoch().pendingCount();
    for (unsigned Sh = 0; Sh < Instance->shardCount(); ++Sh) {
      G.PoolLiveCells += Instance->shardTable(Sh).poolLiveCells();
      if constexpr (std::is_same_v<Policy, solero::BravoRwPolicy>) {
        solero::BravoRwLock &L = Instance->shardPolicy(Sh).protocol();
        G.Revocations += L.revocations();
        G.BiasedShards += L.readBiased();
      }
    }
    return G;
  }

  bool finalChecks() override {
    uint64_t Ins = 0, Rem = 0;
    for (const ClientState &C : Clients) {
      Ins += C.Tally.Inserts;
      Rem += C.Tally.Removes;
    }
    bool Ok = true;
    const uint64_t Want = Prefilled + Ins - Rem, Have = Instance->size();
    if (Want != Have) {
      std::printf("ORACLE %s: size %llu, expected prefill %llu + inserts "
                  "%llu - removes %llu = %llu\n",
                  Prefix, (unsigned long long)Have,
                  (unsigned long long)Prefilled, (unsigned long long)Ins,
                  (unsigned long long)Rem, (unsigned long long)Want);
      Ok = false;
    }
    if (!Instance->quiesce()) {
      std::printf("ORACLE %s: quiesce() leak oracle failed (pool cells != "
                  "live entries)\n",
                  Prefix);
      Ok = false;
    }
    return Ok;
  }

private:
  solero::RuntimeContext &Ctx;
  const WorkloadSpec &W;
  uint64_t Seed;
  std::unique_ptr<Store> Instance;
  uint64_t Prefilled = 0;
  KvExpect Expect;
};

class GuestBench final : public PolicyBench {
public:
  GuestBench(const char *Prefix, solero::RuntimeContext &Ctx, bool Conventional)
      : PolicyBench(Prefix, !Conventional), Ctx(Ctx),
        Conventional(Conventional) {}

  double setupOnce(bool Keep) override {
    if (Keep) {
      Target = {};
      Instance.reset();
    }
    const uint64_t T0 = steadyNs();
    solero::jit::Interpreter::Options O;
    O.UseConventionalLocks = Conventional;
    auto I = std::make_unique<solero::jit::Interpreter>(
        Ctx, solero::bench::buildConfigGuest(), O);
    GuestTarget G{I.get(), I->allocateObject(),
                  I->module().methodId("readConfig"),
                  I->module().methodId("writeConfig")};
    const double Secs = double(steadyNs() - T0) * 1e-9;
    if (!Keep)
      return Secs;
    Instance = std::move(I);
    Target = G;
    return Secs;
  }

  void runRound(unsigned Client, const RoundPlan &P, SpanBuffer *B) override {
    ClientState &C = Clients[Client];
    clientRound(C, P, B, [&](auto, const Op &O, SpanBuffer *Buf, uint64_t &Lat) {
      execGuest(Target, O, C.Tally, Buf, Lat);
    });
  }

  StoreGauges gauges() override { return {}; }

  bool finalChecks() override {
    ClientTally T;
    uint64_t Lat = 0;
    if (execGuest(Target, Op{OpKind::GuestRead, 0}, T, nullptr, Lat))
      return true;
    std::printf("ORACLE %s: quiescent readConfig sum is not 0\n", Prefix);
    return false;
  }

private:
  solero::RuntimeContext &Ctx;
  bool Conventional;
  std::unique_ptr<solero::jit::Interpreter> Instance;
  GuestTarget Target;
};

/// The guest workload's BRAVO row: the config object as native code, with
/// the guest's read, write and oracle.
class ConfigBench final : public PolicyBench {
public:
  ConfigBench(const char *Prefix, solero::RuntimeContext &Ctx)
      : PolicyBench(Prefix, false), Ctx(Ctx) {}

  double setupOnce(bool Keep) override {
    if (Keep)
      Instance.reset();
    const uint64_t T0 = steadyNs();
    auto C = std::make_unique<NativeConfig>(Ctx);
    const double Secs = double(steadyNs() - T0) * 1e-9;
    if (Keep)
      Instance = std::move(C);
    return Secs;
  }

  void runRound(unsigned Client, const RoundPlan &P, SpanBuffer *B) override {
    ClientState &C = Clients[Client];
    clientRound(C, P, B, [&](auto Traced, const Op &O, SpanBuffer *Buf,
                             uint64_t &Lat) {
      execConfig<decltype(Traced)::value>(*Instance, O, C.Tally, Buf, Lat);
    });
  }

  StoreGauges gauges() override {
    StoreGauges G;
    G.Revocations = Instance->Lock.protocol().revocations();
    G.BiasedShards = Instance->Lock.protocol().readBiased();
    return G;
  }

  bool finalChecks() override {
    ClientTally T;
    uint64_t Lat = 0;
    if (execConfig<false>(*Instance, Op{OpKind::GuestRead, 0}, T, nullptr, Lat))
      return true;
    std::printf("ORACLE %s: quiescent config sum is not 0\n", Prefix);
    return false;
  }

private:
  solero::RuntimeContext &Ctx;
  std::unique_ptr<NativeConfig> Instance;
};

// --- Client threads -------------------------------------------------------

/// Main thread -> clients round hand-off. The main thread writes the plan
/// then bumps Seq; clients run the round and bump Done.
class Crew {
public:
  Crew(const std::vector<unsigned> &Cpus, std::size_t Capacity, bool Traced)
      : Buffers(Cpus.size()) {
    for (unsigned I = 0; I < Cpus.size(); ++I) {
      if (Traced)
        Buffers[I] = std::make_unique<SpanBuffer>(Capacity);
      Threads.emplace_back([this, I, Cpu = Cpus[I]] { body(I, Cpu); });
    }
  }

  ~Crew() {
    Quit.store(true, std::memory_order_relaxed);
    Seq.fetch_add(1, std::memory_order_release);
    for (std::thread &T : Threads)
      T.join();
  }

  Crew(const Crew &) = delete;
  Crew &operator=(const Crew &) = delete;

  void run(PolicyBench &P, const RoundPlan &Plan) {
    Current = &P;
    this->Plan = Plan;
    Done.store(0, std::memory_order_relaxed);
    Seq.fetch_add(1, std::memory_order_release);
    const uint64_t Now = ticks();
    if (Plan.End > Now && TicksPerNs > 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          uint64_t(double(Plan.End - Now) / TicksPerNs)));
    while (Done.load(std::memory_order_acquire) != Threads.size())
      std::this_thread::yield();
  }

  SpanBuffer *buffer(unsigned I) { return Buffers[I].get(); }
  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  double TicksPerNs = 1.0;

private:
  void body(unsigned I, unsigned Cpu) {
    solero::NumaTopology::pinCurrentThreadToCpu(Cpu);
    uint64_t Seen = 0;
    for (;;) {
      uint64_t S;
      unsigned Spins = 0;
      while ((S = Seq.load(std::memory_order_acquire)) == Seen) {
        if (++Spins < 4096) {
#if defined(__x86_64__)
          _mm_pause();
#endif
        } else {
          std::this_thread::yield();
        }
      }
      Seen = S;
      if (Quit.load(std::memory_order_relaxed))
        return;
      Current->runRound(I, Plan, Buffers[I].get());
      Done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  std::vector<std::unique_ptr<SpanBuffer>> Buffers;
  PolicyBench *Current = nullptr;
  RoundPlan Plan;
  std::atomic<uint64_t> Seq{0};
  std::atomic<unsigned> Done{0};
  std::atomic<bool> Quit{false};
  std::vector<std::thread> Threads; // last: joined before the rest go
};

// --- Per-policy results ---------------------------------------------------

struct PassResult {
  std::vector<double> OpsS;
  std::array<std::vector<double>, LatClassCount> P50, P99;
  std::array<TickHistogram, LatClassCount> All; ///< every measured sample
  uint64_t Ops = 0, AllOps = 0;
  CounterValues Counters{};
  StoreGauges GaugeDelta;
};

struct PolicyResult {
  double SetupSeconds = 0;
  unsigned Setups = 0;
  PassResult Plain, Traced;
  Ledger Trace;
  uint64_t ReadSections = 0, ReadBodies = 0;
  std::array<uint64_t, KvShards> ShardOps{};
  StoreGauges End;
};

void addCounters(CounterValues &Acc, const CounterValues &Before,
                 const CounterValues &After) {
  for (std::size_t I = 0; I < CounterCount; ++I)
    Acc[I] += After[I] - Before[I];
}

void runMeasuredRound(Crew &C, PolicyBench &P, PassResult &R, bool Traced,
                      double Seconds, PolicyResult &PR) {
  const CounterValues Before = counterSnapshot();
  const StoreGauges GBefore = P.gauges();
  RoundPlan Plan;
  const uint64_t Start = ticks();
  Plan.WarmEnd = Start + uint64_t(RoundWarmSeconds * 1e9 * C.TicksPerNs);
  Plan.End = Plan.WarmEnd + uint64_t(Seconds * 1e9 * C.TicksPerNs);
  Plan.Record = true;
  Plan.Traced = Traced;
  C.run(P, Plan);
  const CounterValues After = counterSnapshot();
  const StoreGauges GAfter = P.gauges();
  addCounters(R.Counters, Before, After);
  R.GaugeDelta.Resizes += GAfter.Resizes - GBefore.Resizes;
  R.GaugeDelta.Revocations += GAfter.Revocations - GBefore.Revocations;

  double Rate = 0;
  std::array<TickHistogram, LatClassCount> Round;
  for (unsigned I = 0; I < C.size(); ++I) {
    ClientState &CS = P.Clients[I];
    if (CS.RoundTicks)
      Rate += double(CS.RoundOps) / (double(CS.RoundTicks) / C.TicksPerNs * 1e-9);
    R.Ops += CS.RoundOps;
    R.AllOps += CS.RoundAllOps;
    for (unsigned L = 0; L < LatClassCount; ++L)
      Round[L].merge(CS.Hist[L]);
    if (Traced) {
      PR.Trace.add(*C.buffer(I));
      C.buffer(I)->clear();
    }
  }
  R.OpsS.push_back(Rate);
  for (unsigned L = 0; L < LatClassCount; ++L) {
    if (Round[L].count()) {
      R.P50[L].push_back(double(Round[L].percentile(50)));
      R.P99[L].push_back(double(Round[L].percentile(99)));
    }
    R.All[L].merge(Round[L]);
  }
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (std::size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value, Ms[I].Unit);
  std::printf("}}\n");
}

double ticksToUs(double T, double TicksPerNs) { return T / TicksPerNs / 1000.0; }

void printLatencyRow(const char *Prefix, const char *Cls, const PassResult &R,
                     LatClass L, double Tpn) {
  const TickHistogram &H = R.All[L];
  if (!H.count())
    return;
  std::printf("  %-7s %-5s n=%-10llu p50=%.4f us  p99=%.4f us", Prefix, Cls,
              (unsigned long long)H.count(),
              ticksToUs(median(R.P50[L]), Tpn), ticksToUs(median(R.P99[L]), Tpn));
  if (percentileSupported(99.9, H.count()))
    std::printf("  p99.9=%.4f us", ticksToUs(double(H.percentile(99.9)), Tpn));
  std::printf("  max=%.4f us (highest supported: p%g)\n",
              ticksToUs(double(H.max()), Tpn),
              highestSupportedPercentile(H.count()));
}

void printCounterRow(const char *Prefix, const PassResult &R,
                     const StoreGauges &End) {
  std::printf("  %-7s counters over %llu ops:", Prefix,
              (unsigned long long)R.AllOps);
  for (std::size_t I = 0; I < CounterCount; ++I)
    std::printf(" %s=%llu", CounterFields[I].Name,
                (unsigned long long)R.Counters[I]);
  std::printf(" | resizes=%llu revocations=%llu biased_shards_end=%llu "
              "retired_pending_end=%llu pool_live_cells_end=%llu\n",
              (unsigned long long)R.GaugeDelta.Resizes,
              (unsigned long long)R.GaugeDelta.Revocations,
              (unsigned long long)End.BiasedShards,
              (unsigned long long)End.RetiredPending,
              (unsigned long long)End.PoolLiveCells);
}

double perOp(uint64_t N, uint64_t Ops) { return Ops ? double(N) / double(Ops) : 0.0; }

} // namespace

int main(int Argc, char **Argv) {
  const Options Opt = parseArgs(Argc, Argv);
  const WorkloadSpec &W = *findWorkload(Opt.Workload);

  const std::vector<unsigned> Cpus = allowedCpus();
  const unsigned NClients = std::clamp<unsigned>(
      static_cast<unsigned>(Cpus.size()) - 1, 1, MaxClients);
  std::vector<unsigned> ClientCpus;
  for (unsigned I = 0; I < NClients; ++I)
    ClientCpus.push_back(Cpus[(I + 1) % Cpus.size()]);
  // The main thread, and the event-bus thread the context starts, stay on
  // the first CPU, away from the clients.
  solero::NumaTopology::pinCurrentThreadToCpu(Cpus[0]);

  TickCalibration Cal;
  solero::RuntimeContext Ctx;

  std::vector<std::unique_ptr<PolicyBench>> Benches;
  if (W.Guest) {
    Benches.push_back(std::make_unique<GuestBench>("lock", Ctx, true));
    Benches.push_back(std::make_unique<ConfigBench>("bravo", Ctx));
    Benches.push_back(std::make_unique<GuestBench>("solero", Ctx, false));
  } else {
    Benches.push_back(std::make_unique<KvBench<solero::TasukiPolicy>>(
        "lock", Ctx, W, Opt.Seed));
    Benches.push_back(std::make_unique<KvBench<solero::BravoRwPolicy>>(
        "bravo", Ctx, W, Opt.Seed));
    Benches.push_back(std::make_unique<KvBench<solero::SoleroPolicy>>(
        "solero", Ctx, W, Opt.Seed));
  }
  std::shared_ptr<const solero::ZipfianSampler> Zipf;
  if (W.Zipf > 0)
    Zipf = std::make_shared<solero::ZipfianSampler>(W.Keys, W.Zipf);
  for (auto &B : Benches)
    for (unsigned I = 0; I < NClients; ++I)
      B->Clients.emplace_back(W, Opt.Seed, I, Zipf);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d cpus=%zu "
              "clients=%u (pinned to",
              W.Name.c_str(), (unsigned long long)Opt.Seed, Opt.Seconds,
              int(Opt.Trace), Cpus.size(), NClients);
  for (unsigned C : ClientCpus)
    std::printf(" %u", C);
  std::printf("; main on %u)\n", Cpus[0]);

  // Set-up: fresh instances per policy, built in batches spread over the
  // run. setup_s is the median of each policy's builds, summed over the
  // policies. The first batch keeps its last instance for the run; the
  // later batches discard theirs.
  std::vector<PolicyResult> Res(Benches.size());
  std::vector<std::vector<double>> SetupTimes(Benches.size());
  auto SetupBatch = [&](bool Keep) {
    for (std::size_t P = 0; P < Benches.size(); ++P) {
      double Spent = 0;
      unsigned N = 0;
      do {
        SetupTimes[P].push_back(Benches[P]->setupOnce(Keep));
        Spent += SetupTimes[P].back();
      } while (++N < MaxSetups / SetupBatches &&
               Spent < SetupBudgetSeconds / SetupBatches);
    }
  };
  SetupBatch(true);

  bool Correct = true;
  {
    Crew C(ClientCpus, SpanBufferCapacity, Opt.Trace);
    Cal.finish();
    C.TicksPerNs = Cal.ticksPerNs();

    for (auto &B : Benches) {
      RoundPlan Warm;
      Warm.WarmEnd = Warm.End =
          ticks() + uint64_t(PolicyWarmSeconds * 1e9 * C.TicksPerNs);
      C.run(*B, Warm);
    }

    const unsigned Passes = Opt.Trace ? 2 : 1;
    const double RoundSeconds =
        Opt.Seconds / double(Rounds * Passes * Benches.size());
    for (unsigned R = 0; R < Rounds; ++R) {
      for (unsigned Pass = 0; Pass < Passes; ++Pass)
        for (std::size_t P = 0; P < Benches.size(); ++P)
          runMeasuredRound(C, *Benches[P],
                           Pass ? Res[P].Traced : Res[P].Plain, Pass == 1,
                           RoundSeconds, Res[P]);
      if ((R + 1) % (Rounds / SetupBatches) == 0 && R + 1 < Rounds)
        SetupBatch(false);
    }

    for (std::size_t P = 0; P < Benches.size(); ++P) {
      Res[P].End = Benches[P]->gauges();
      for (const ClientState &CS : Benches[P]->Clients) {
        Res[P].ReadSections += CS.Tally.ReadSections;
        Res[P].ReadBodies += CS.Tally.ReadBodies;
        for (unsigned S = 0; S < KvShards; ++S)
          Res[P].ShardOps[S] += CS.Tally.ShardOps[S];
      }
    }
  }
  Cal.finish();
  const double Tpn = Cal.ticksPerNs();
  double SetupS = 0;
  for (std::size_t P = 0; P < Benches.size(); ++P) {
    Res[P].SetupSeconds = median(SetupTimes[P]);
    Res[P].Setups = static_cast<unsigned>(SetupTimes[P].size());
    SetupS += Res[P].SetupSeconds;
  }

  for (auto &B : Benches)
    Correct &= B->finalChecks();
  uint64_t Attempted = 0, Failed = 0;
  for (auto &B : Benches)
    for (const ClientState &CS : B->Clients) {
      Attempted += CS.Tally.Attempted;
      Failed += CS.Tally.Failed;
    }
  Correct &= Failed == 0;

  // --- Report ---------------------------------------------------------------
  std::printf("tick rate %.6f ticks/ns; %u rounds per policy%s\n", Tpn, Rounds,
              Opt.Trace ? " and pass (untraced, traced)" : "");
  for (std::size_t P = 0; P < Benches.size(); ++P) {
    const PolicyResult &R = Res[P];
    const char *Pre = Benches[P]->Prefix;
    std::printf("  %-7s setup %.6f s (median of %u)  ops/s %.1f (median of "
                "%zu rounds, %llu ops)\n",
                Pre, R.SetupSeconds, R.Setups, median(R.Plain.OpsS),
                R.Plain.OpsS.size(), (unsigned long long)R.Plain.Ops);
    std::printf("  %-7s ops/s by round:", Pre);
    for (double V : R.Plain.OpsS)
      std::printf(" %.0f", V);
    std::printf("\n");
    printLatencyRow(Pre, "read", R.Plain, LatRead, Tpn);
    printLatencyRow(Pre, "write", R.Plain, LatWrite, Tpn);
    printLatencyRow(Pre, "scan", R.Plain, LatScan, Tpn);
    printCounterRow(Pre, R.Plain, R.End);
  }
  std::printf("error_rate %.10g (failed %llu of %llu attempted)\n",
              Attempted ? double(Failed) / double(Attempted) : 0.0,
              (unsigned long long)Failed, (unsigned long long)Attempted);

  std::vector<Metric> Ms;
  if (!Opt.Trace) {
    Ms.push_back({"setup_s", SetupS, "s"});
    Ms.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    for (std::size_t P = 0; P < Benches.size(); ++P) {
      const PassResult &R = Res[P].Plain;
      const std::string Pre = Benches[P]->Prefix;
      Ms.push_back({Pre + ".ops_s", median(R.OpsS), "1/s"});
      Ms.push_back({Pre + ".read_p50_us", ticksToUs(median(R.P50[LatRead]), Tpn), "us"});
      Ms.push_back({Pre + ".read_p99_us", ticksToUs(median(R.P99[LatRead]), Tpn), "us"});
      Ms.push_back({Pre + ".write_p50_us", ticksToUs(median(R.P50[LatWrite]), Tpn), "us"});
    }
  } else {
    // Per-layer ledger. Every workload prints every metric; one a workload
    // cannot measure reads 0: the kv and mm metrics on the guest, the jit
    // metrics on the KV workloads, and a span kind the mix never issues.
    double GenNs = 0, Overhead = 0;
    uint64_t GenCount = 0;
    for (std::size_t I = 0; I < Benches.size(); ++I) {
      const PolicyBench &B = *Benches[I];
      const PolicyResult &PR = Res[I];
      const std::string P = B.Prefix;
      const std::string L = P + (B.Solero ? ".core" : ".locks");
      const Ledger &G = PR.Trace;
      const PassResult &U = PR.Plain;
      auto C = [&](const char *N) { return counterOf(U.Counters, N); };
      auto SpanMean = [&](const char *Name, SpanName N) {
        Ms.push_back({P + Name, G.meanNs(N, Tpn), "ns"});
      };

      SpanMean(".kv.get_ns", SpKvGet);
      SpanMean(".kv.put_ns", SpKvPut);
      SpanMean(".kv.remove_ns", SpKvRemove);
      SpanMean(".kv.scan_ns", SpKvScan);
      SpanMean(".kv.table_get_ns", SpTableGet);
      SpanMean(".kv.table_put_ns", SpTablePut);
      SpanMean(".kv.table_remove_ns", SpTableRemove);
      SpanMean(".kv.table_scan_ns", SpTableScan);
      Ms.push_back({P + ".kv.resizes", double(U.GaugeDelta.Resizes), "count"});
      const uint64_t MaxShard =
          *std::max_element(PR.ShardOps.begin(), PR.ShardOps.end());
      uint64_t SumShard = 0;
      for (uint64_t N : PR.ShardOps)
        SumShard += N;
      Ms.push_back({P + ".kv.shard_skew", perOp(MaxShard * KvShards, SumShard),
                    "ratio"});
      Ms.push_back({L + ".read_self_ns",
                    G.meanSelfNs({SpKvGet, SpKvScan, SpCfgRead}, Tpn), "ns"});
      Ms.push_back({L + ".write_self_ns",
                    G.meanSelfNs({SpKvPut, SpKvRemove, SpCfgWrite}, Tpn), "ns"});
      Ms.push_back({L + ".read_attempts_per_op",
                    perOp(PR.ReadBodies, PR.ReadSections), "count"});
      Ms.push_back({L + ".rmw_per_op", perOp(C("AtomicRmws"), U.AllOps), "count"});
      Ms.push_back({L + ".stores_per_op", perOp(C("LockWordStores"), U.AllOps),
                    "count"});
      if (B.Solero) {
        Ms.push_back({L + ".elision_success_ratio",
                      perOp(C("ElisionSuccesses"), C("ElisionAttempts")), "ratio"});
        Ms.push_back({L + ".fallbacks_per_kop",
                      1000 * perOp(C("Fallbacks"), U.AllOps), "1/kop"});
        Ms.push_back({L + ".spec_retries_per_kop",
                      1000 * perOp(C("SpecRetries"), U.AllOps), "1/kop"});
      }
      if (P == "bravo") {
        Ms.push_back({L + ".revocations", double(U.GaugeDelta.Revocations), "count"});
        Ms.push_back({L + ".biased_shards_end", double(PR.End.BiasedShards), "count"});
      }
      Ms.push_back({P + ".runtime.flc_waits_per_kop",
                    1000 * perOp(C("FlcWaits"), U.AllOps), "1/kop"});
      Ms.push_back({P + ".runtime.inflations", double(C("Inflations")), "count"});
      Ms.push_back({P + ".mm.retired_pending", double(PR.End.RetiredPending), "count"});
      Ms.push_back({P + ".mm.pool_live_cells", double(PR.End.PoolLiveCells), "count"});
      if (P != "bravo") { // the BRAVO row never runs the interpreter
        SpanMean(".jit.read_invoke_ns", SpJitRead);
        SpanMean(".jit.write_invoke_ns", SpJitWrite);
      }

      GenNs += double(G.ByName[SpGen].Duration) / Tpn;
      GenCount += G.ByName[SpGen].Count;
      const double Plain = median(U.OpsS), Traced = median(PR.Traced.OpsS);
      if (Plain > 0)
        Overhead += (Plain - Traced) / Plain * 100.0 / double(Benches.size());
      std::printf("  %-7s traced: %llu sampled requests (%llu dropped), "
                  "ops/s %.1f vs %.1f untraced; self-time shares:",
                  P.c_str(), (unsigned long long)G.Requests,
                  (unsigned long long)G.DroppedRequests, Traced, Plain);
      for (unsigned Ly = 0; Ly < LayerCount; ++Ly)
        if (G.layerShare(Layer(Ly)) > 0)
          std::printf(" %s=%.1f%%", layerString(Layer(Ly), B.Solero),
                      100 * G.layerShare(Layer(Ly)));
      std::printf("\n");
    }
    Ms.push_back({"support.gen_ns", GenCount ? GenNs / double(GenCount) : 0.0, "ns"});
    Ms.push_back({"trace.overhead_pct", Overhead, "%"});
  }

  for (const Metric &M : Ms)
    std::printf("  %-36s %.10g %s\n", M.Name.c_str(), M.Value, M.Unit);
  if (!Correct)
    std::printf("ORACLE: output check failed\n");
  printJson(Correct, Attempted, Failed, Ms);
  return Correct ? 0 : 1;
}
