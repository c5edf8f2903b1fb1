//===- bench/ablate_read_mostly.cpp - Section 5 extension ------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The read-mostly extension (Section 5, Figure 17) has no figure in the
/// paper; this ablation quantifies it. Critical sections that *might*
/// write (with probability p) are run three ways:
///
///   Lock        — conventional acquisition every time
///   BravoRW     — BRAVO-biased RW lock: read section when the op will not
///                 write, write section when it will (beyond the paper)
///   SOLERO-W    — classified writing (SOLERO without the extension)
///   SOLERO-RM   — read-mostly: elide, upgrade with one CAS when a write
///                 actually happens
///
/// Expectation: SOLERO-RM approaches read-only elision as p -> 0 and
/// degrades gracefully toward SOLERO-W as p grows; BRAVO tracks the
/// read-only cost at p = 0 and its adaptive bias-disable keeps the
/// write-heavy end near the plain RW lock.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "locks/BravoRwLock.h"
#include "runtime/SharedField.h"
#include "support/Rng.h"

using namespace solero;

namespace {

struct Shared {
  ObjectHeader Monitor;
  SharedField<int64_t> A{0}, B{0};
};

struct Fixture {
  explicit Fixture(RuntimeContext &Ctx, SoleroConfig Cfg = SoleroConfig())
      : Tasuki(Ctx), Solero(Ctx, Cfg), Bravo(Ctx) {}
  TasukiLock Tasuki;
  SoleroLock Solero;
  BravoRwLock Bravo;
  Shared Data;
  CacheLinePadded<Xoshiro256StarStar> Rngs[64];
};

enum class Mode { Lock, BravoRw, SoleroWrite, SoleroReadMostly };

BenchResult run(BenchEnv &Env, Fixture &F, Mode M, int Threads,
                unsigned WritePercent) {
  for (int T = 0; T < 64; ++T)
    *F.Rngs[T] = Xoshiro256StarStar(Env.Seed + static_cast<uint64_t>(T));
  HarnessOptions OneTrial = Env.Opts;
  return runThroughput(Threads, OneTrial, [&F, M, WritePercent](int T) {
    Xoshiro256StarStar &Rng = *F.Rngs[T];
    bool DoWrite = Rng.nextBounded(1000) < WritePercent * 10;
    switch (M) {
    case Mode::Lock:
      F.Tasuki.synchronizedWrite(F.Data.Monitor, [&] {
        int64_t V = F.Data.A.read();
        if (DoWrite) {
          F.Data.A.write(V + 1);
          F.Data.B.write(V + 1);
        }
      });
      break;
    case Mode::BravoRw:
      // The RW shape: the op knows up front whether it writes, so reads
      // take the (biased) read path and writes the exclusive path.
      if (DoWrite) {
        F.Bravo.synchronizedWrite([&] {
          int64_t V = F.Data.A.read();
          F.Data.A.write(V + 1);
          F.Data.B.write(V + 1);
        });
      } else {
        F.Bravo.synchronizedReadOnly(
            [&](ReadGuard &) { return F.Data.A.read(); });
      }
      break;
    case Mode::SoleroWrite:
      F.Solero.synchronizedWrite(F.Data.Monitor, [&] {
        int64_t V = F.Data.A.read();
        if (DoWrite) {
          F.Data.A.write(V + 1);
          F.Data.B.write(V + 1);
        }
      });
      break;
    case Mode::SoleroReadMostly:
      F.Solero.synchronizedReadMostly(F.Data.Monitor, [&](WriteIntent &W) {
        int64_t V = F.Data.A.read();
        if (DoWrite) {
          W.acquireForWrite();
          F.Data.A.write(V + 1);
          F.Data.B.write(V + 1);
        }
      });
      break;
    }
  });
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv, {"app-threads"});
  printBanner("Ablation A1", "Read-mostly extension (Section 5, Figure 17)",
              "No paper figure; expectation: read-mostly approaches elided "
              "read-only cost as the write\nprobability approaches zero.");
  int Threads = static_cast<int>(Env.Args.getInt("app-threads", 1));
  JsonReport Json("ablate_read_mostly");
  TablePrinter T({"write%", "Lock ops/s", "BravoRW ops/s", "SOLERO-W ops/s",
                  "SOLERO-RM ops/s", "RM/Lock", "RM rmw/op", "RM fail%"});
  for (unsigned W : {0u, 1u, 5u, 20u, 50u, 100u}) {
    Fixture F(*Env.Ctx);
    BenchResult L = run(Env, F, Mode::Lock, Threads, W);
    BenchResult BR = run(Env, F, Mode::BravoRw, Threads, W);
    BenchResult SW = run(Env, F, Mode::SoleroWrite, Threads, W);
    BenchResult RM = run(Env, F, Mode::SoleroReadMostly, Threads, W);
    T.addRow({std::to_string(W), TablePrinter::num(L.OpsPerSec, 0),
              TablePrinter::num(BR.OpsPerSec, 0),
              TablePrinter::num(SW.OpsPerSec, 0),
              TablePrinter::num(RM.OpsPerSec, 0),
              TablePrinter::num(RM.OpsPerSec / L.OpsPerSec, 2),
              TablePrinter::num(RM.rmwPerOp(), 2),
              TablePrinter::percent(RM.failureRatio(), 2)});
    std::string Variant = "write" + std::to_string(W);
    Json.add(Variant, "Lock", Threads, L);
    Json.add(Variant, "BravoRW", Threads, BR);
    Json.add(Variant, "SOLERO-W", Threads, SW);
    Json.add(Variant, "SOLERO-RM", Threads, RM);
  }
  T.print();
  return Json.write(Env.JsonPath) ? 0 : 1;
}
