//===- bench/fig12_hashmap_scaling.cpp - Figure 12 -------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Figure 12: multi-thread HashMap throughput, normalized to Lock at one
/// thread. (a) 0% writes: SOLERO scales near-linearly while Lock and
/// RWLock degrade; (b) 5% writes: SOLERO leads but dips past two threads
/// (contention + speculation failures, 23% failures at 16 threads);
/// (c) 5% writes fine-grained (#maps == #threads): SOLERO leads at every
/// thread count, ~3% failures at 16 threads.
///
/// Beyond the paper: a BRAVO column (locks/BravoRwLock.h) turns the RWLock
/// baseline into a state-of-the-art biased reader path, so the four-way
/// Lock / RWLock / BRAVO / SOLERO comparison judges SOLERO against modern
/// reader indication rather than only the 2010 centralized lock. With
/// --json=PATH the per-protocol ops/s-by-thread-count grid is also written
/// as machine-readable JSON (schema: BenchCommon.h JsonReport).
///
//===----------------------------------------------------------------------===//

#include "MapBenchRunner.h"

using namespace solero;

using HashMapT = JavaHashMap<int64_t, int64_t>;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  printBanner("Figure 12", "HashMap multi-thread throughput",
              "(a) 0% writes: SOLERO near-linear, Lock/RWLock degrade; "
              "(b) 5%: SOLERO leads, dips past 2\nthreads with 23% failures "
              "at 16; (c) fine-grained 5%: SOLERO leads everywhere, ~3% "
              "failures.");
  std::vector<int> Threads = Env.threadList({1, 2, 4, 8, 16});
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 3));
  JsonReport Json("fig12");
  runScalingVariant<HashMapT>(Env, Json, "a", "(a) 0% writes", 0, false,
                              Threads, Rounds);
  runScalingVariant<HashMapT>(Env, Json, "b", "(b) 5% writes", 5, false,
                              Threads, Rounds);
  runScalingVariant<HashMapT>(
      Env, Json, "c", "(c) 5% writes, fine-grained (#maps == #threads)", 5,
      true, Threads, Rounds);
  return Json.write(Env.JsonPath) ? 0 : 1;
}
