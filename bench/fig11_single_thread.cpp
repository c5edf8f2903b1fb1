//===- bench/fig11_single_thread.cpp - Figure 11 --------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Figure 11: single-thread performance of HashMap (0% / 5% writes),
/// TreeMap (0% / 5% writes), and SPECjbb-like, relative to the
/// conventional lock. Paper: SOLERO +7.8% (HashMap 0%), +6.4% (HashMap
/// 5%), ~+1% (TreeMap, lower lock frequency), +4.2% (SPECjbb2005);
/// RWLock substantially below Lock on the microbenchmarks; RWLock is not
/// measured for SPECjbb (as in the paper).
///
//===----------------------------------------------------------------------===//

#include "MapBenchRunner.h"

#include "workloads/JbbWorkload.h"

using namespace solero;

namespace {

using HashMapT = JavaHashMap<int64_t, int64_t>;
using TreeMapT = JavaTreeMap<int64_t, int64_t>;

template <typename Policy>
TrialRunner makeJbbRunner(BenchEnv &Env, const char *Name) {
  JbbParams P;
  P.Warehouses = 1;
  P.Seed = Env.Seed;
  auto W = std::make_shared<JbbWorkload<Policy>>(*Env.Ctx, P);
  HarnessOptions OneTrial = Env.Opts;
  OneTrial.Trials = 1;
  return TrialRunner{
      Name, [W, OneTrial] { return runThroughput(1, OneTrial, std::ref(*W)); }};
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"rounds", "keys"});
  printBanner("Figure 11",
              "Single-thread relative performance (Lock = 100%)",
              "SOLERO: HashMap0% 107.8, HashMap5% 106.4, TreeMap ~101, "
              "SPECjbb 104.2.\nRWLock far below 100 on the "
              "microbenchmarks (not inlined, extra indirection).");
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 2 : 5));

  TablePrinter T({"benchmark", "Lock ops/s", "RWLock rel%", "SOLERO rel%",
                  "paper SOLERO rel%"});

  auto AddMapRow = [&](const char *Name, auto MapTag, unsigned WritePct,
                       double PaperRel) {
    using MapT = typename decltype(MapTag)::type;
    std::vector<TrialRunner> Runners;
    Runners.push_back(
        makeMapRunner<MapT, TasukiPolicy>(Env, "Lock", 1, WritePct));
    Runners.push_back(
        makeMapRunner<MapT, RwPolicy>(Env, "RWLock", 1, WritePct));
    Runners.push_back(
        makeMapRunner<MapT, SoleroPolicy>(Env, "SOLERO", 1, WritePct));
    std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);
    T.addRow({Name, TablePrinter::num(R[0].OpsPerSec, 0),
              TablePrinter::num(100.0 * R[1].OpsPerSec / R[0].OpsPerSec, 1),
              TablePrinter::num(100.0 * R[2].OpsPerSec / R[0].OpsPerSec, 1),
              TablePrinter::num(PaperRel, 1)});
  };

  AddMapRow("HashMap 0% writes", std::type_identity<HashMapT>{}, 0, 107.8);
  AddMapRow("HashMap 5% writes", std::type_identity<HashMapT>{}, 5, 106.4);
  AddMapRow("TreeMap 0% writes", std::type_identity<TreeMapT>{}, 0, 101.0);
  AddMapRow("TreeMap 5% writes", std::type_identity<TreeMapT>{}, 5, 101.0);

  {
    std::vector<TrialRunner> Runners;
    Runners.push_back(makeJbbRunner<TasukiPolicy>(Env, "Lock"));
    Runners.push_back(makeJbbRunner<SoleroPolicy>(Env, "SOLERO"));
    std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);
    T.addRow({"SPECjbb-like", TablePrinter::num(R[0].OpsPerSec, 0), "n/a",
              TablePrinter::num(100.0 * R[1].OpsPerSec / R[0].OpsPerSec, 1),
              TablePrinter::num(104.2, 1)});
  }
  T.print();
  return 0;
}
