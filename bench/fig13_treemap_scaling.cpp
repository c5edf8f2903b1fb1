//===- bench/fig13_treemap_scaling.cpp - Figure 13 -------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Figure 13: multi-thread TreeMap throughput, normalized to Lock at one
/// thread. (a) 0% writes: SOLERO near-linear scalability, above both
/// other implementations; (b) 5% writes: SOLERO improves to ~8 threads
/// and stays above Lock/RWLock at every thread count; failure ratio
/// reaches 35% at 16 threads (Figure 15).
///
/// Beyond the paper: the BRAVO column and --json output, exactly as in
/// fig12_hashmap_scaling.
///
//===----------------------------------------------------------------------===//

#include "MapBenchRunner.h"

using namespace solero;

using TreeMapT = JavaTreeMap<int64_t, int64_t>;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  printBanner("Figure 13", "TreeMap multi-thread throughput",
              "(a) 0% writes: SOLERO near-linear and highest; (b) 5% "
              "writes: SOLERO improves to ~8\nthreads, highest at every "
              "count; 35% failure ratio at 16 threads.");
  std::vector<int> Threads = Env.threadList({1, 2, 4, 8, 16});
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 3));
  JsonReport Json("fig13");
  runScalingVariant<TreeMapT>(Env, Json, "a", "(a) 0% writes", 0, false,
                              Threads, Rounds);
  runScalingVariant<TreeMapT>(Env, Json, "b", "(b) 5% writes", 5, false,
                              Threads, Rounds);
  return Json.write(Env.JsonPath) ? 0 : 1;
}
