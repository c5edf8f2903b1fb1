//===- bench/ablate_barriers.cpp - Section 3.4 fence costs -----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Quantifies the memory-ordering cost the paper discusses in Section 3.4:
/// the read-only fast path's entry fence (PowerPC `sync`; a StoreLoad
/// fence on x86) versus the conventional lock's acquire-only entry. The
/// paper measured 20%/7%/5% ordering overhead on HashMap/TreeMap/
/// SPECjbb (Power6); this ablation reports the same decomposition for
/// this host, plus the raw primitive costs (fence vs CAS) that decide
/// whether SOLERO's single-thread advantage materializes on a given
/// microarchitecture (EXPERIMENTS.md discusses the x86-vs-Power story).
///
//===----------------------------------------------------------------------===//

#include "MapBenchRunner.h"

#include "support/Stopwatch.h"

using namespace solero;

namespace {

using HashMapT = JavaHashMap<int64_t, int64_t>;
using TreeMapT = JavaTreeMap<int64_t, int64_t>;

/// ns/op of a tight primitive loop.
template <typename Fn> double primitiveNs(Fn &&F) {
  const int N = 3000000;
  for (int I = 0; I < N / 10; ++I)
    F(I);
  Stopwatch W;
  for (int I = 0; I < N; ++I)
    F(I);
  return W.elapsedNs() / static_cast<double>(N);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"rounds", "keys"});
  printBanner("Ablation A2", "Memory-ordering costs (Section 3.4)",
              "Paper (Power6): ordering overhead of SOLERO reads = 20% "
              "(HashMap), 7% (TreeMap), 5%\n(SPECjbb); the elision win "
              "depends on fence cost vs saved atomic ops.");

  // Raw primitives.
  {
    std::atomic<uint64_t> Word{0};
    uint64_t Local = 0;
    TablePrinter T({"primitive", "ns/op"});
    T.addRow({"relaxed load", TablePrinter::num(primitiveNs([&](int) {
                Local += Word.load(std::memory_order_relaxed);
              }))});
    T.addRow({"acquire load + seq_cst fence (SOLERO read entry)",
              TablePrinter::num(primitiveNs([&](int) {
                Local += Word.load(std::memory_order_acquire);
                std::atomic_thread_fence(std::memory_order_seq_cst);
              }))});
    T.addRow({"uncontended CAS + release store (Lock enter+exit)",
              TablePrinter::num(primitiveNs([&](int I) {
                uint64_t E = 0;
                Word.compare_exchange_strong(E, 0x100,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed);
                Word.store(0, std::memory_order_release);
                Local += static_cast<uint64_t>(I);
              }))});
    T.print();
    if (Local == 42)
      std::printf("!"); // keep the loop results observable
  }

  // Per-workload decomposition: Correct vs Weak barriers vs Unelided.
  std::printf("\nSOLERO read-only sections on the map workloads (1 thread), "
              "barrier variants:\n");
  TablePrinter T({"benchmark", "Correct ops/s", "Weak ops/s",
                  "ordering overhead", "Unelided ops/s"});
  auto Row = [&](const char *Name, auto MapTag, unsigned WritePct) {
    using MapT = typename decltype(MapTag)::type;
    std::vector<TrialRunner> Runners;
    Runners.push_back(
        makeMapRunner<MapT, SoleroPolicy>(Env, "Correct", 1, WritePct));
    // Weak-barrier and unelided variants need distinct policies; reuse the
    // runner plumbing with wrapper policies.
    struct WeakPolicy : SoleroPolicy {
      explicit WeakPolicy(RuntimeContext &Ctx)
          : SoleroPolicy(Ctx, weakBarrierSoleroConfig()) {}
    };
    struct UnelidedPolicy : SoleroPolicy {
      explicit UnelidedPolicy(RuntimeContext &Ctx)
          : SoleroPolicy(Ctx, unelidedSoleroConfig()) {}
    };
    Runners.push_back(
        makeMapRunner<MapT, WeakPolicy>(Env, "Weak", 1, WritePct));
    Runners.push_back(
        makeMapRunner<MapT, UnelidedPolicy>(Env, "Unelided", 1, WritePct));
    int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 4));
    std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);
    double Overhead = (R[1].OpsPerSec - R[0].OpsPerSec) / R[1].OpsPerSec;
    T.addRow({Name, TablePrinter::num(R[0].OpsPerSec, 0),
              TablePrinter::num(R[1].OpsPerSec, 0),
              TablePrinter::percent(Overhead, 1),
              TablePrinter::num(R[2].OpsPerSec, 0)});
  };
  Row("HashMap 0% writes", std::type_identity<HashMapT>{}, 0);
  Row("TreeMap 0% writes", std::type_identity<TreeMapT>{}, 0);
  T.print();
  std::printf("\nPaper reference ordering overheads (Power6): HashMap 20%%, "
              "TreeMap 7%%, SPECjbb 5%%.\n");
  return 0;
}
