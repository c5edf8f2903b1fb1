//===- examples/concurrent_cache.cpp - Read-mostly cache -------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The paper's motivating scenario: a shared lookup table with read-mostly
/// access (Section 1). A session cache is hit by many readers and the
/// occasional insert/expire. Runs the same traffic under all three lock
/// implementations and prints the throughput and protocol counters so the
/// elision effect is visible.
///
///   build/examples/concurrent_cache [--threads=4] [--seconds=1]
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>

#include "collections/JavaHashMap.h"
#include "collections/SynchronizedMap.h"
#include "support/CliParser.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"
#include "workloads/Harness.h"
#include "workloads/LockPolicies.h"

using namespace solero;

namespace {

using Cache = JavaHashMap<int64_t, int64_t>;

template <typename Policy>
void runScenario(RuntimeContext &Ctx, const char *Name, int Threads,
                 std::chrono::milliseconds Window, TablePrinter &Out) {
  SynchronizedMap<Cache, Policy> Sessions(Ctx);
  for (int64_t Id = 0; Id < 4096; ++Id)
    Sessions.put(Id, Id * 7919); // fake session tokens

  HarnessOptions Opts;
  Opts.Window = Window;
  Opts.Trials = 2;
  std::vector<CacheLinePadded<Xoshiro256StarStar>> Rngs(
      static_cast<std::size_t>(Threads));
  for (int T = 0; T < Threads; ++T)
    *Rngs[static_cast<std::size_t>(T)] =
        Xoshiro256StarStar(42 + static_cast<uint64_t>(T));

  BenchResult R = runThroughput(Threads, Opts, [&](int T) {
    Xoshiro256StarStar &Rng = *Rngs[static_cast<std::size_t>(T)];
    int64_t Id = static_cast<int64_t>(Rng.nextBounded(4096));
    if (Rng.nextBounded(100) < 2) {
      // 2%: session refresh (write).
      Sessions.put(Id, static_cast<int64_t>(Rng.next() >> 1));
    } else {
      // 98%: token validation (read-only, elidable).
      (void)Sessions.get(Id);
    }
  });

  Out.addRow({Name, TablePrinter::num(R.OpsPerSec / 1e6, 2),
              TablePrinter::num(R.rmwPerOp(), 2),
              TablePrinter::num(R.storesPerOp(), 2),
              TablePrinter::percent(R.failureRatio(), 2)});
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Args(Argc, Argv, {"seconds", "threads"});
  int Threads = static_cast<int>(Args.getInt("threads", 4));
  auto Window = std::chrono::milliseconds(
      static_cast<int>(Args.getInt("seconds", 1) * 1000) / 4);
  RuntimeContext Ctx;

  std::printf("Session cache, 98%% lookups / 2%% refreshes, %d threads\n\n",
              Threads);
  TablePrinter Out({"lock impl", "Mops/s", "atomic rmw/op", "lock stores/op",
                    "elision fail%"});
  runScenario<TasukiPolicy>(Ctx, "Lock (mutual exclusion)", Threads, Window,
                            Out);
  runScenario<RwPolicy>(Ctx, "RWLock", Threads, Window, Out);
  runScenario<SoleroPolicy>(Ctx, "SOLERO", Threads, Window, Out);
  Out.print();
  std::printf("\nSOLERO lookups neither CAS nor store the lock word — the "
              "rmw/op column is the cache\ncoherence traffic a 16-way "
              "machine would feel.\n");
  return 0;
}
