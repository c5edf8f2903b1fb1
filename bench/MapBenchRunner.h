//===- bench/MapBenchRunner.h - Map workload runners ------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the HashMap/TreeMap figure binaries.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_BENCH_MAPBENCHRUNNER_H
#define SOLERO_BENCH_MAPBENCHRUNNER_H

#include "BenchCommon.h"

#include "collections/JavaHashMap.h"
#include "collections/JavaTreeMap.h"
#include "collections/SynchronizedMap.h"
#include "workloads/MapWorkload.h"

namespace solero {

/// The workload parameters of one map cell; the key space comes from
/// --keys (paper: 1K entries).
inline MapWorkloadParams mapParams(const BenchEnv &Env, unsigned WritePercent,
                                   int NumMaps, bool YieldInReadSection,
                                   unsigned NestedWritePercent) {
  MapWorkloadParams P;
  P.KeySpace = Env.Args.getInt("keys", 1024);
  P.WritePercent = WritePercent;
  P.NumMaps = NumMaps;
  P.Seed = Env.Seed;
  P.YieldInReadSection = YieldInReadSection;
  P.NestedWritePercent = NestedWritePercent;
  return P;
}

/// Runs one (map type, policy, thread count, write%) cell.
template <typename MapT, typename Policy>
BenchResult runMapBench(BenchEnv &Env, int Threads, unsigned WritePercent,
                        int NumMaps = 1, bool YieldInReadSection = false,
                        unsigned NestedWritePercent = 0) {
  using Sync = SynchronizedMap<MapT, Policy>;
  MapWorkload<Sync> W(mapParams(Env, WritePercent, NumMaps,
                                YieldInReadSection, NestedWritePercent),
                      [&](int) { return std::make_unique<Sync>(*Env.Ctx); });
  return runThroughput(Threads, Env.Opts, std::ref(W));
}

/// Builds a one-trial runner for interleaved comparisons (the workload —
/// including its prefilled maps — is shared across trials). Extra
/// \p PolicyArgs are forwarded to the policy constructor after the
/// runtime context: pass configs here when two runners must compare
/// configurations of the *same* policy type, so both execute the same
/// template instantiation and code-layout luck cancels out.
template <typename MapT, typename Policy, typename... PolicyArgs>
TrialRunner makeMapRunner(BenchEnv &Env, const char *Name, int Threads,
                          unsigned WritePercent, int NumMaps = 1,
                          bool YieldInReadSection = false,
                          unsigned NestedWritePercent = 0,
                          PolicyArgs &&...PA) {
  using Sync = SynchronizedMap<MapT, Policy>;
  auto W = std::make_shared<MapWorkload<Sync>>(
      mapParams(Env, WritePercent, NumMaps, YieldInReadSection,
                NestedWritePercent),
      [&](int) { return std::make_unique<Sync>(*Env.Ctx, PA...); });
  HarnessOptions OneTrial = Env.Opts;
  OneTrial.Trials = 1;
  return TrialRunner{Name, [W, Threads, OneTrial] {
                       return runThroughput(Threads, OneTrial, std::ref(*W));
                     }};
}

/// One scaling variant of the Figure 12/13 map benches: Lock, RWLock,
/// BRAVO and SOLERO interleaved at each thread count, printed as one table
/// (throughput normalized to Lock at the first thread count) and added to
/// \p Json under \p VariantId. \p FineGrained gives each thread its own
/// map (#maps == #threads).
template <typename MapT>
void runScalingVariant(BenchEnv &Env, JsonReport &Json, const char *VariantId,
                       const char *Title, unsigned WritePct, bool FineGrained,
                       const std::vector<int> &Threads, int Rounds) {
  std::printf("\n--- %s ---\n", Title);
  TablePrinter T({"threads", "Lock ops/s", "RWLock ops/s", "BRAVO ops/s",
                  "SOLERO ops/s", "SOLERO norm", "RWLock rmw/op",
                  "BRAVO rmw/op", "SOLERO rmw/op", "SOLERO fail%"});
  double LockBase = 0;
  for (int N : Threads) {
    int Maps = FineGrained ? N : 1;
    std::vector<TrialRunner> Runners;
    Runners.push_back(
        makeMapRunner<MapT, TasukiPolicy>(Env, "Lock", N, WritePct, Maps));
    Runners.push_back(
        makeMapRunner<MapT, RwPolicy>(Env, "RWLock", N, WritePct, Maps));
    Runners.push_back(
        makeMapRunner<MapT, BravoRwPolicy>(Env, "BravoRW", N, WritePct, Maps));
    Runners.push_back(
        makeMapRunner<MapT, SoleroPolicy>(Env, "SOLERO", N, WritePct, Maps));
    std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);
    const BenchResult &Lock = R[0], &Rw = R[1], &Bravo = R[2], &So = R[3];
    if (LockBase == 0)
      LockBase = Lock.OpsPerSec;
    T.addRow({std::to_string(N), TablePrinter::num(Lock.OpsPerSec, 0),
              TablePrinter::num(Rw.OpsPerSec, 0),
              TablePrinter::num(Bravo.OpsPerSec, 0),
              TablePrinter::num(So.OpsPerSec, 0),
              TablePrinter::num(So.OpsPerSec / LockBase, 2),
              TablePrinter::num(Rw.rmwPerOp(), 2),
              TablePrinter::num(Bravo.rmwPerOp(), 2),
              TablePrinter::num(So.rmwPerOp(), 2),
              TablePrinter::percent(So.failureRatio(), 1)});
    Json.add(VariantId, "Lock", N, Lock);
    Json.add(VariantId, "RWLock", N, Rw);
    Json.add(VariantId, "BravoRW", N, Bravo);
    Json.add(VariantId, "SOLERO", N, So);
  }
  T.print();
}

} // namespace solero

#endif // SOLERO_BENCH_MAPBENCHRUNNER_H
