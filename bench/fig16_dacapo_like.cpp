//===- bench/fig16_dacapo_like.cpp - Figure 16 -----------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Figure 16: the four multithreaded DaCapo applications (profile-matched
/// synthetic stand-ins; see DESIGN.md). Paper: the read-only lock ratios
/// are low (0–11.4%), so SOLERO shows no major difference from Lock, and
/// its performance degradation is negligible (< 1%).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/DaCapoLikeWorkload.h"

using namespace solero;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"app-threads", "rounds"});
  printBanner("Figure 16", "DaCapo-profile applications, Lock vs SOLERO",
              "Low read-only ratios (h2 0%, tomcat 3.7%, tradebeans 0.3%, "
              "tradesoap 11.4%): SOLERO ~=\nLock, degradation < 1%.");
  int Threads = static_cast<int>(Env.Args.getInt("app-threads", 2));
  TablePrinter T({"app", "Lock ops/s", "SOLERO ops/s", "SOLERO/Lock",
                  "read-only% (paper)", "lockM/s (paper)"});
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 4));
  HarnessOptions OneTrial = Env.Opts;
  OneTrial.Trials = 1;
  for (const DaCapoProfile &Prof : DaCapoProfiles) {
    auto WL = std::make_shared<DaCapoLikeWorkload<TasukiPolicy>>(*Env.Ctx, Prof,
                                                                 64, Env.Seed);
    auto WS = std::make_shared<DaCapoLikeWorkload<SoleroPolicy>>(*Env.Ctx, Prof,
                                                                 64, Env.Seed);
    std::vector<TrialRunner> Runners;
    Runners.push_back(TrialRunner{"Lock", [WL, Threads, OneTrial] {
      return runThroughput(Threads, OneTrial, std::ref(*WL));
    }});
    Runners.push_back(TrialRunner{"SOLERO", [WS, Threads, OneTrial] {
      return runThroughput(Threads, OneTrial, std::ref(*WS));
    }});
    std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);
    const BenchResult &Lock = R[0], &So = R[1];
    char RoCol[64], FreqCol[64];
    std::snprintf(RoCol, sizeof(RoCol), "%.1f%% (%.1f%%)",
                  So.readOnlyRatio() * 100.0, Prof.PaperReadOnlyPercent);
    std::snprintf(FreqCol, sizeof(FreqCol), "%.1f (%.1f)",
                  So.locksPerSec() / 1e6, Prof.PaperLockFreqMillionsPerSec);
    T.addRow({Prof.Name, TablePrinter::num(Lock.OpsPerSec, 0),
              TablePrinter::num(So.OpsPerSec, 0),
              TablePrinter::num(So.OpsPerSec / Lock.OpsPerSec, 3), RoCol,
              FreqCol});
  }
  T.print();
  return 0;
}
