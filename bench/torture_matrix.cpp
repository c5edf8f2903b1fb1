//===- bench/torture_matrix.cpp - Torture cross-product driver ------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Drives the stress/ torture subsystem through a cross-product of
/// protocol × thread count × write ratio × async-storm rate × seed and
/// prints one oracle row per cell. Any oracle violation (mutual exclusion,
/// torn snapshot, counter conservation, unreleased final state) makes the
/// process exit nonzero, so CI can run this directly under TSan/ASan.
///
///   torture_matrix --smoke              # one small cell per protocol
///   torture_matrix --quick              # reduced matrix for CI
///   torture_matrix --seeds=1,2,3        # seed sweep
///   torture_matrix --enforce-watchdog   # park-latency trips fail too
///
//===----------------------------------------------------------------------===//

#include "stress/TortureRunner.h"
#include "support/CliParser.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <vector>

using namespace solero;
using namespace solero::stress;

int main(int Argc, char **Argv) {
  CliParser Cli(Argc, Argv,
                {"enforce-watchdog", "iters", "quick", "seeds", "smoke",
                 "storm-us", "threads", "writes"});
  const bool Smoke = Cli.getBool("smoke", false);
  const bool Quick = Cli.getBool("quick", false);
  const bool EnforceWatchdog = Cli.getBool("enforce-watchdog", false);
  const uint64_t Iters = static_cast<uint64_t>(
      Cli.getInt("iters", Smoke ? 1000 : (Quick ? 3000 : 10000)));

  std::vector<int> Threads =
      Cli.getIntList("threads", Smoke ? std::vector<int>{4}
                     : Quick           ? std::vector<int>{2, 8}
                                       : std::vector<int>{2, 4, 8});
  std::vector<int> WritePercents =
      Cli.getIntList("writes", Smoke ? std::vector<int>{20}
                     : Quick          ? std::vector<int>{5, 50}
                                      : std::vector<int>{0, 5, 20, 50});
  std::vector<int> StormMicros =
      Cli.getIntList("storm-us", Smoke ? std::vector<int>{200}
                                       : std::vector<int>{0, 200});
  std::vector<int> Seeds = Cli.getIntList(
      "seeds", Smoke || Quick ? std::vector<int>{1} : std::vector<int>{1, 2});

  const TortureProtocol Protocols[] = {
      TortureProtocol::Solero,  TortureProtocol::Tasuki,
      TortureProtocol::SeqLock, TortureProtocol::RWLock,
      TortureProtocol::BravoRW, TortureProtocol::ShardedKv};

  TablePrinter T({"protocol", "thr", "wr%", "storm-us", "seed", "reads",
                  "writes", "throws", "trips", "maxop-us", "firings",
                  "verdict"});
  int Cells = 0, Failures = 0;
  for (TortureProtocol P : Protocols)
    for (int Thr : Threads)
      for (int Wr : WritePercents)
        for (int Storm : StormMicros)
          for (int Seed : Seeds) {
            TortureConfig C;
            C.Protocol = P;
            C.Threads = Thr;
            C.WritePercent = Wr;
            // Guest throws only where the protocol validates them
            // (elided/optimistic readers; ShardedKv pair-reads run under
            // SOLERO shard locks).
            C.GuestThrowPercent = (P == TortureProtocol::Solero ||
                                   P == TortureProtocol::SeqLock ||
                                   P == TortureProtocol::ShardedKv)
                                      ? 5
                                      : 0;
            C.Seed = static_cast<uint64_t>(Seed);
            C.IterationsPerThread = Iters;
            C.AsyncStormPeriod = std::chrono::microseconds(Storm);
            C.EnforceWatchdog = EnforceWatchdog;
            TortureReport R = runTorture(C);
            ++Cells;
            if (!R.passed()) {
              ++Failures;
              std::fprintf(stderr,
                           "FAIL %s thr=%d wr=%d storm=%d seed=%d: %s\n",
                           tortureProtocolName(P), Thr, Wr, Storm, Seed,
                           R.summary().c_str());
            }
            T.addRow({tortureProtocolName(P), std::to_string(Thr),
                      std::to_string(Wr), std::to_string(Storm),
                      std::to_string(Seed), std::to_string(R.Reads),
                      std::to_string(R.Writes), std::to_string(R.GuestThrows),
                      std::to_string(R.WatchdogTrips),
                      std::to_string(R.MaxOpMicros),
                      std::to_string(R.InjectionFirings),
                      R.passed() ? "ok" : "FAIL"});
          }
  T.print();
  std::printf("\n%d/%d cells passed their oracles%s\n", Cells - Failures,
              Cells, EnforceWatchdog ? " (watchdog enforced)" : "");
  return Failures == 0 ? 0 : 1;
}
