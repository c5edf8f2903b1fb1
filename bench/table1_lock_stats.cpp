//===- bench/table1_lock_stats.cpp - Table 1 -------------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Table 1: lock statistics of every benchmark — lock frequency (millions
/// of critical-section entries per second) and the ratio of read-only
/// synchronized blocks. Measured under the SOLERO protocol on one thread
/// (per-thread frequency; the paper measured whole-machine frequency on
/// 16 cores — see EXPERIMENTS.md for the comparison rule).
///
//===----------------------------------------------------------------------===//

#include "MapBenchRunner.h"

#include "workloads/DaCapoLikeWorkload.h"
#include "workloads/JbbWorkload.h"

using namespace solero;

namespace {

using HashMapT = JavaHashMap<int64_t, int64_t>;
using TreeMapT = JavaTreeMap<int64_t, int64_t>;

struct PaperRow {
  const char *Name;
  double PaperFreq; ///< millions of locks per second (Table 1)
  double PaperRo;   ///< read-only percentage (Table 1)
};

void addRow(TablePrinter &T, const PaperRow &P, const BenchResult &R) {
  T.addRow({P.Name, TablePrinter::num(R.locksPerSec() / 1e6, 2),
            TablePrinter::num(P.PaperFreq, 1),
            TablePrinter::percent(R.readOnlyRatio(), 1),
            TablePrinter::num(P.PaperRo, 1) + "%"});
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv,
               {"adaptive", "adaptive-threads", "bravo", "bravo-threads",
                "keys"});
  printBanner("Table 1", "Lock statistics per benchmark",
              "Lock frequency (M locks/s) and read-only lock ratio: Empty "
              "12.8/100%, HashMap 5.4/100%\nand 5.3/95%, TreeMap 1.7/100% "
              "and 1.6/95%, SPECjbb 6.2/53.6%, h2 2.0/0%, tomcat 7.3/3.7%,\n"
              "tradebeans 1.7/0.3%, tradesoap 3.4/11.4%.");
  TablePrinter T({"benchmark", "lockM/s", "paper lockM/s", "read-only%",
                  "paper read-only%"});

  {
    SoleroPolicy P(*Env.Ctx);
    BenchResult R = runThroughput(1, Env.Opts, [&](int) {
      P.read([](ReadGuard &) { return 0; });
    });
    addRow(T, {"Empty", 12.8, 100.0}, R);
  }
  addRow(T, {"HashMap (0% writes)", 5.4, 100.0},
         runMapBench<HashMapT, SoleroPolicy>(Env, 1, 0));
  addRow(T, {"HashMap (5% writes)", 5.3, 95.0},
         runMapBench<HashMapT, SoleroPolicy>(Env, 1, 5));
  addRow(T, {"TreeMap (0% writes)", 1.7, 100.0},
         runMapBench<TreeMapT, SoleroPolicy>(Env, 1, 0));
  addRow(T, {"TreeMap (5% writes)", 1.6, 95.0},
         runMapBench<TreeMapT, SoleroPolicy>(Env, 1, 5));
  {
    JbbParams P;
    P.Warehouses = 1;
    P.Seed = Env.Seed;
    JbbWorkload<SoleroPolicy> W(*Env.Ctx, P);
    addRow(T, {"SPECjbb-like", 6.2, 53.6},
           runThroughput(1, Env.Opts, std::ref(W)));
  }
  const PaperRow DaCapoRows[] = {{"h2-like", 2.0, 0.0},
                                 {"tomcat-like", 7.3, 3.7},
                                 {"tradebeans-like", 1.7, 0.3},
                                 {"tradesoap-like", 3.4, 11.4}};
  for (int I = 0; I < 4; ++I) {
    DaCapoLikeWorkload<SoleroPolicy> W(*Env.Ctx, DaCapoProfiles[I], 64,
                                       Env.Seed);
    addRow(T, DaCapoRows[I], runThroughput(1, Env.Opts, std::ref(W)));
  }
  T.print();

  if (Env.Args.getBool("bravo", false)) {
    // Reader-indication observability (beyond the paper): the same map
    // traffic under the centralized RWLock vs the BRAVO-biased lock.
    // rmw/op vs st/op is the whole story — BRAVO converts the shared-state
    // CAS pair per read into two plain slot stores — and "revocations"
    // shows the adaptive policy charging writers for the bias.
    int Threads = static_cast<int>(Env.Args.getInt("bravo-threads", 2));
    std::printf("\n--- RWLock vs BravoRW lock statistics (--bravo, %d "
                "threads) ---\n",
                Threads);
    TablePrinter B({"workload", "protocol", "ops/s", "lockM/s", "rmw/op",
                    "st/op", "read-only%"});
    const struct {
      const char *Name;
      unsigned WritePercent;
    } Rows[] = {{"HashMap 0% writes", 0},
                {"HashMap 5% writes", 5},
                {"HashMap 100% writes", 100}};
    for (const auto &Row : Rows) {
      BenchResult Rw = runMapBench<HashMapT, RwPolicy>(Env, Threads,
                                                       Row.WritePercent);
      BenchResult Bravo = runMapBench<HashMapT, BravoRwPolicy>(
          Env, Threads, Row.WritePercent);
      for (const auto &Cell :
           {std::make_pair("RWLock", &Rw), std::make_pair("BravoRW", &Bravo)})
        B.addRow({Row.Name, Cell.first,
                  TablePrinter::num(Cell.second->OpsPerSec, 0),
                  TablePrinter::num(Cell.second->locksPerSec() / 1e6, 2),
                  TablePrinter::num(Cell.second->rmwPerOp(), 2),
                  TablePrinter::num(Cell.second->storesPerOp(), 2),
                  TablePrinter::percent(Cell.second->readOnlyRatio(), 1)});
    }
    B.print();
  }

  if (Env.Args.getBool("adaptive", false)) {
    // Controller observability (beyond the paper): per-state speculation
    // attempts and policy transitions of Adaptive-SOLERO on map traffic
    // with a dialled share of misclassified-read-only sections (nested
    // same-lock write inside the read section — the deterministic failure
    // source, see fig15 --adaptive). dis/rep/ren = disable / re-probe /
    // re-enable transition counts.
    RuntimeConfig Patient;
    Patient.Tiers = SpinTiers{64, 32, 1 << 14};
    Env.Ctx = std::make_unique<RuntimeContext>(Patient);
    int Threads =
        static_cast<int>(Env.Args.getInt("adaptive-threads", 2));
    std::printf("\n--- Adaptive-SOLERO controller decisions (--adaptive, %d "
                "threads) ---\n",
                Threads);
    TablePrinter A({"workload", "ops/s", "fail%", "spec-skip%", "attempts",
                    "reprobe", "dis/rep/ren"});
    const struct {
      const char *Name;
      unsigned NestedWritePercent;
    } Rows[] = {{"HashMap 5% nested-write", 5},
                {"HashMap 50% nested-write", 50}};
    for (const auto &Row : Rows) {
      BenchResult R = runMapBench<HashMapT, AdaptiveSoleroPolicy>(
          Env, Threads, /*WritePercent=*/0, 1, /*YieldInReadSection=*/false,
          Row.NestedWritePercent);
      A.addRow({Row.Name, TablePrinter::num(R.OpsPerSec, 0),
                TablePrinter::percent(R.failureRatio(), 1),
                TablePrinter::percent(R.skipRatio(), 1),
                std::to_string(R.Delta.ElisionAttempts.value()),
                std::to_string(R.Delta.ReprobeAttempts.value()),
                R.controllerTransitions()});
    }
    A.print();
  }
  return 0;
}
