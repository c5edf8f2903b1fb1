//===- bench/ablate_classifier.cpp - Escape-analysis ablation -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Ablation A6: what the escape analysis buys the classifier. The snapshot
/// guest allocates a result holder *inside* its synchronized block and
/// fills it in — the "allocate, fill, read back" idiom. Under the plain
/// Section 3.2 rules those putfields disqualify the region; with escape
/// analysis the holder is provably region-local, the region is ReadOnly,
/// and the hot 95% read path elides instead of taking the lock.
///
/// The report has two parts: the static reclassification count (regions
/// that flip Writing -> ReadOnly when escape analysis turns on) and the
/// guest throughput delta between the two classifier configurations on
/// otherwise identical runtimes.
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
  GuestRunner(RuntimeContext &Ctx, bool EscapeOn, DispatchMode Mode,
              uint64_t Seed)
      : Seed(Seed) {
    Interpreter::Options Opts;
    Opts.Mode = Mode;
    Opts.Classifier.EscapeAnalysis = EscapeOn;
    Interp =
        std::make_unique<Interpreter>(Ctx, bench::buildSnapshotGuest(), Opts);
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

/// Counts regions per kind under one classifier configuration.
struct KindCounts {
  unsigned ReadOnly = 0, ReadMostly = 0, Writing = 0;
};

KindCounts countKinds(const Module &M, const ClassifierOptions &Opts) {
  ClassifiedModule C = classifyModule(M, nullptr, Opts);
  KindCounts K;
  for (uint32_t Id = 0; Id < M.methodCount(); ++Id)
    for (const ClassifiedRegion &R : C.regions(Id))
      switch (R.Kind) {
      case RegionKind::ReadOnly:
        ++K.ReadOnly;
        break;
      case RegionKind::ReadMostly:
        ++K.ReadMostly;
        break;
      case RegionKind::Writing:
        ++K.Writing;
        break;
      }
  return K;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"app-threads", "rounds"});
  printBanner("Ablation A6", "Escape analysis in the read-only classifier",
              "writes are allowed in elided sections only when they "
              "provably target region-local\nallocations; everything else "
              "must lock (Section 3.2).");
  // Default 1 app thread: the guest allocates inside the region, and on
  // the 1-vCPU host two concurrently *eliding* threads contend on the
  // allocator while the conventional lock serializes them for free —
  // a scheduler artifact, not a protocol cost (see EXPERIMENTS.md). The
  // rmw/op column is the host-independent signal either way.
  int Threads = static_cast<int>(Env.Args.getInt("app-threads", 1));
  int Rounds = static_cast<int>(Env.Args.getInt("rounds", Env.Quick ? 1 : 4));

  // Part 1: static reclassification on the snapshot guest.
  Module Guest = bench::buildSnapshotGuest();
  ClassifierOptions Off;
  Off.EscapeAnalysis = false;
  KindCounts Plain = countKinds(Guest, Off);
  KindCounts Esc = countKinds(Guest, ClassifierOptions{});
  std::printf("\nstatic reclassification (snapshot guest):\n");
  std::printf("  escape analysis off: %u ReadOnly, %u Writing\n",
              Plain.ReadOnly, Plain.Writing);
  std::printf("  escape analysis on:  %u ReadOnly, %u Writing\n", Esc.ReadOnly,
              Esc.Writing);
  std::printf("  regions reclassified Writing -> ReadOnly: %u\n\n",
              Esc.ReadOnly - Plain.ReadOnly);

  // Part 2: guest throughput, 95% snapshot / 5% update, identical runtimes
  // except for the classifier knob.
  struct Config {
    const char *Name;
    bool EscapeOn;
    DispatchMode Mode;
  };
  const Config Configs[] = {
      {"no escape / switch", false, DispatchMode::Reference},
      {"escape / switch", true, DispatchMode::Reference},
      {"no escape / threaded", false, DispatchMode::Threaded},
      {"escape / threaded", true, DispatchMode::Threaded},
  };
  HarnessOptions OneTrial = Env.Opts;
  OneTrial.Trials = 1;
  std::vector<TrialRunner> Runners;
  for (const Config &C : Configs) {
    auto R = std::make_shared<GuestRunner>(*Env.Ctx, C.EscapeOn, C.Mode,
                                           Env.Seed);
    Runners.push_back(TrialRunner{C.Name, [R, Threads, OneTrial] {
      return runThroughput(Threads, OneTrial, std::ref(*R));
    }});
  }
  std::vector<BenchResult> R = runInterleavedBest(Runners, Rounds);

  TablePrinter T({"classifier", "guest tx/s", "rmw/op", "st/op",
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
  std::printf("\nescape/no-escape = %.3f (switch), %.3f (threaded); with the "
              "holder writes proven\nregion-local the 95%% snapshot path "
              "elides instead of locking.\n",
              R[1].OpsPerSec / R[0].OpsPerSec,
              R[3].OpsPerSec / R[2].OpsPerSec);
  return 0;
}
