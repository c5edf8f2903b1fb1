//===- bench/ablate_jit_guest.cpp - Guest program under both runtimes ------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The paper's experimental design in miniature: the *same guest program*
/// (CSIR bytecode with synchronized blocks) executed by two runtimes —
/// one locking every region conventionally, one applying the Section 3.2
/// classification and eliding the read-only blocks. No guest-code change,
/// exactly as SOLERO "can replace the conventional lock implementation of
/// Java ... without requiring source code modification".
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "GuestPrograms.h"

#include "jit/Interpreter.h"

#include "support/Rng.h"

using namespace solero;
using namespace solero::jit;

namespace {

struct GuestRunner {
  GuestRunner(RuntimeContext &Ctx, bool Conventional, DispatchMode Mode,
              uint64_t Seed)
      : Seed(Seed) {
    Interpreter::Options Opts;
    Opts.UseConventionalLocks = Conventional;
    Opts.Mode = Mode;
    Interp = std::make_unique<Interpreter>(Ctx, bench::buildConfigGuest(), Opts);
    Config = Interp->allocateObject();
    for (int T = 0; T < 64; ++T)
      *Rngs[T] = Xoshiro256StarStar(Seed + static_cast<uint64_t>(T));
  }

  void operator()(int T) {
    Xoshiro256StarStar &Rng = *Rngs[T];
    if (Rng.nextPercent(5))
      Interp->invoke(1, {Value::ofRef(Config),
                         Value::ofInt(static_cast<int64_t>(Rng.next() >> 8))});
    else
      Sink += Interp->invoke(0, {Value::ofRef(Config)}).asInt();
  }

  uint64_t Seed;
  std::unique_ptr<Interpreter> Interp;
  GuestObject *Config = nullptr;
  CacheLinePadded<Xoshiro256StarStar> Rngs[64];
  std::atomic<int64_t> Sink{0};
};

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"app-threads", "rounds"});
  printBanner("Ablation A3", "One guest program, two runtimes (JIT view)",
              "SOLERO replaces the conventional lock implementation with no "
              "guest-code change; the\nclassifier elides the read-only "
              "blocks automatically.");
  int Threads = static_cast<int>(Env.Args.getInt("app-threads", 2));
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 4));

  // Four runtimes: both lock protocols under both execution engines. The
  // engine is orthogonal to the protocol, so the dispatch speedup should
  // not move the SOLERO/Conventional ratio.
  struct Config {
    const char *Name;
    bool Conventional;
    DispatchMode Mode;
  };
  const Config Configs[] = {
      {"Conventional / switch", true, DispatchMode::Reference},
      {"SOLERO / switch", false, DispatchMode::Reference},
      {"Conventional / threaded", true, DispatchMode::Threaded},
      {"SOLERO / threaded", false, DispatchMode::Threaded},
  };
  HarnessOptions OneTrial = Env.Opts;
  OneTrial.Trials = 1;
  std::vector<TrialRunner> Runners;
  for (const Config &C : Configs) {
    auto R = std::make_shared<GuestRunner>(*Env.Ctx, C.Conventional, C.Mode,
                                           Env.Seed);
    Runners.push_back(TrialRunner{C.Name, [R, Threads, OneTrial] {
      return runThroughput(Threads, OneTrial, std::ref(*R));
    }});
  }
  std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);

  TablePrinter T({"runtime", "guest tx/s", "rmw/op", "st/op",
                  "elide succ/op", "fail%"});
  for (std::size_t I = 0; I < 4; ++I)
    T.addRow({Configs[I].Name, TablePrinter::num(R[I].OpsPerSec, 0),
              TablePrinter::num(R[I].rmwPerOp(), 2),
              TablePrinter::num(R[I].storesPerOp(), 2),
              TablePrinter::num(
                  R[I].Ops ? static_cast<double>(R[I].Delta.ElisionSuccesses) /
                                 static_cast<double>(R[I].Ops)
                           : 0,
                  2),
              TablePrinter::percent(R[I].failureRatio(), 2)});
  T.print();
  std::printf("\nthreaded/switch speedup: Conventional %.2fx, SOLERO %.2fx\n",
              R[2].OpsPerSec / R[0].OpsPerSec, R[3].OpsPerSec / R[1].OpsPerSec);
  std::printf("SOLERO/Conventional = %.3f (switch), %.3f (threaded); 95%% of "
              "guest transactions are\nread-only synchronized blocks and "
              "elide (0 lock-word traffic).\n",
              R[1].OpsPerSec / R[0].OpsPerSec,
              R[3].OpsPerSec / R[2].OpsPerSec);
  return 0;
}
