//===- bench/fig14_jbb_scaling.cpp - Figure 14 -----------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Figure 14: SPECjbb2005-like multi-thread throughput (warehouses ==
/// threads), Lock vs SOLERO, normalized to Lock at one thread. Paper:
/// the workload is share-nothing scalable, so SOLERO's single-thread
/// advantage (~4%) carries proportionally to all thread counts, with ~0%
/// speculation failures.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/JbbWorkload.h"

using namespace solero;

namespace {

template <typename Policy>
TrialRunner makeJbbRunner(BenchEnv &Env, const char *Name, int Threads) {
  JbbParams P;
  P.Warehouses = Threads; // SPECjbb convention: warehouses == threads
  P.Seed = Env.Seed;
  auto W = std::make_shared<JbbWorkload<Policy>>(*Env.Ctx, P);
  HarnessOptions OneTrial = Env.Opts;
  OneTrial.Trials = 1;
  return TrialRunner{Name, [W, Threads, OneTrial] {
                       return runThroughput(Threads, OneTrial, std::ref(*W));
                     }};
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"rounds"});
  printBanner("Figure 14", "SPECjbb-like multi-thread throughput "
                           "(warehouses == threads)",
              "SOLERO's ~4% single-thread advantage carries across thread "
              "counts; ~0% speculation\nfailures at any count.");
  std::vector<int> Threads = Env.threadList({1, 2, 4, 8, 16});
  TablePrinter T({"threads", "Lock tx/s", "SOLERO tx/s", "SOLERO/Lock",
                  "read-only%", "SOLERO fail%"});
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 3));
  for (int N : Threads) {
    std::vector<TrialRunner> Runners;
    Runners.push_back(makeJbbRunner<TasukiPolicy>(Env, "Lock", N));
    Runners.push_back(makeJbbRunner<SoleroPolicy>(Env, "SOLERO", N));
    std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);
    const BenchResult &Lock = R[0], &So = R[1];
    T.addRow({std::to_string(N), TablePrinter::num(Lock.OpsPerSec, 0),
              TablePrinter::num(So.OpsPerSec, 0),
              TablePrinter::num(So.OpsPerSec / Lock.OpsPerSec, 3),
              TablePrinter::percent(So.readOnlyRatio(), 1),
              TablePrinter::percent(So.failureRatio(), 2)});
  }
  T.print();
  return 0;
}
