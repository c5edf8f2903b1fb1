//===- tests/DispatchDifferentialTest.cpp - Engine equivalence ------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Differential property test: randomized CSIR programs executed under the
// threaded (pre-decoded) engine and the reference (switch) oracle must
// produce identical results, guest errors, heap/static effects, elision
// statistics, and — when profiling — identical per-pc counts, across every
// lock policy. Programs are generated verifier-clean by construction from
// a seeded SplitMix64, covering arithmetic, bounded loops, calls, field
// and static traffic, guest errors, and all three region kinds.
//
//===----------------------------------------------------------------------===//

#include "jit/Interpreter.h"

#include "jit/MethodBuilder.h"
#include "runtime/ThreadRegistry.h"
#include "support/Rng.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <vector>

using namespace solero;
using namespace solero::jit;

namespace {

/// Event bus off: a mid-run poll-flag tick would abort a speculation in
/// one run but not its twin, making the statistic comparison flaky.
class DispatchDifferential : public SuiteContext<> {
public:
  static void SetUpTestSuite() { start(quietConfig()); }
};

constexpr int NumScratch = 6; // main's scratch locals: slots 2..7
// Dedicated ref-typed local for the in-region result holder (always
// stored before read, so it stays dead at region entry).
constexpr int32_t HolderSlot = 2 + NumScratch;

/// Pure leaf callee: arithmetic over its two int params only.
Method buildLeaf(SplitMix64 &R) {
  MethodBuilder B("leaf", 2, 2);
  B.load(0);
  const int Steps = 1 + static_cast<int>(R.next() % 4);
  for (int S = 0; S < Steps; ++S) {
    switch (R.next() % 4) {
    case 0:
      B.load(1).add();
      break;
    case 1:
      B.constant(static_cast<int64_t>(R.next() % 9) + 1).add();
      break;
    case 2:
      B.load(1).sub();
      break;
    default:
      B.constant(static_cast<int64_t>(R.next() % 7) + 1).div();
      break;
    }
  }
  B.ret();
  return B.take();
}

/// Read-mostly helper (annotation-driven): conditionally bumps F0 under
/// the region, returns the field — exercises the Figure 17 upgrade path.
Method buildReadMostly() {
  MethodBuilder B("rm", 2, 2);
  B.annotateReadMostly();
  auto Skip = B.newLabel();
  B.load(0).syncEnter();
  B.load(1).jumpIfZero(Skip);
  B.load(0).load(0).getField(0).constant(1).add().putField(0);
  B.bind(Skip);
  B.syncExit();
  B.load(0).getField(0).ret();
  return B.take();
}

/// Main method: slot 0 = int arg, slot 1 = object, slots 2..7 scratch,
/// slot 8 the result-holder ref. Every statement is stack-neutral;
/// scratch writes inside regions are dead at region entry, so regions
/// keep their natural classification.
Method buildMain(SplitMix64 &R) {
  MethodBuilder B("main", 2, 3 + NumScratch);
  auto Scratch = [&] { return static_cast<int32_t>(2 + R.next() % NumScratch); };
  auto Field = [&] { return static_cast<int32_t>(R.next() % 4); };

  const int Stmts = 6 + static_cast<int>(R.next() % 6);
  for (int S = 0; S < Stmts; ++S) {
    switch (R.next() % 12) {
    case 0: // scratch arithmetic
      B.load(Scratch()).constant(static_cast<int64_t>(R.next() % 50)).add();
      B.store(Scratch());
      break;
    case 1: // field write
      B.load(1).constant(static_cast<int64_t>(R.next() % 100)).putField(Field());
      break;
    case 2: // field read (load+getfield fusion fodder)
      B.load(1).getField(Field()).store(Scratch());
      break;
    case 3: // static read-modify-write
    {
      int32_t Cell = static_cast<int32_t>(R.next() % 4);
      B.getStatic(Cell).constant(static_cast<int64_t>(R.next() % 10)).add();
      B.putStatic(Cell);
      break;
    }
    case 4: // bounded loop (back edges, const+add fusion)
    {
      auto Loop = B.newLabel(), Done = B.newLabel();
      // Distinct slots: if the accumulator aliased the counter the loop
      // would never count down to zero.
      int32_t Ctr = Scratch();
      int32_t Acc = 2 + (Ctr - 2 + 1) % NumScratch;
      B.constant(1 + static_cast<int64_t>(R.next() % 8)).store(Ctr);
      B.bind(Loop);
      B.load(Ctr).jumpIfZero(Done);
      B.load(Acc).constant(static_cast<int64_t>(R.next() % 5)).add().store(Acc);
      B.load(Ctr).constant(-1).add().store(Ctr);
      B.jump(Loop);
      B.bind(Done);
      break;
    }
    case 5: // if (scratch < c) field write   (cmplt+jz fusion)
    {
      auto Skip = B.newLabel();
      B.load(Scratch()).constant(static_cast<int64_t>(R.next() % 40)).cmpLt();
      B.jumpIfZero(Skip);
      B.load(1).constant(static_cast<int64_t>(R.next() % 100)).putField(Field());
      B.bind(Skip);
      break;
    }
    case 6: // call the pure leaf
      B.load(0).constant(static_cast<int64_t>(R.next() % 20)).invoke(1);
      B.store(Scratch());
      break;
    case 7: // maybe-throwing division by the int arg
      B.constant(100 + static_cast<int64_t>(R.next() % 50)).load(0).div();
      B.store(Scratch());
      break;
    case 8: // read-only region: sum fields (and maybe a pure call)
    {
      B.load(1).syncEnter();
      B.constant(0);
      const int Reads = 1 + static_cast<int>(R.next() % 3);
      for (int Rd = 0; Rd < Reads; ++Rd)
        B.load(1).getField(Field()).add();
      if (R.next() % 2 == 0)
        B.load(0).constant(static_cast<int64_t>(R.next() % 20)).invoke(1).add();
      B.store(Scratch());
      B.syncExit();
      break;
    }
    case 9: // writing region: field read-modify-write under the lock
      B.load(1).syncEnter();
      B.load(1).load(1).getField(Field())
          .constant(static_cast<int64_t>(R.next() % 10)).add().putField(Field());
      B.syncExit();
      break;
    case 10: // snapshot region: allocate a holder, fill it, read it back.
             // The escape analysis proves the holder writes benign, so the
             // region elides — both engines must agree on the counters.
    {
      B.load(1).syncEnter();
      B.newObject().store(HolderSlot);
      B.load(HolderSlot).load(1).getField(Field()).putField(0);
      B.load(HolderSlot).load(1).getField(Field())
          .constant(static_cast<int64_t>(R.next() % 25)).add().putField(1);
      B.load(HolderSlot).getField(0)
          .load(HolderSlot).getField(1).add().store(Scratch());
      B.syncExit();
      break;
    }
    default: // read-mostly helper call (flag = int arg)
      B.load(1).load(0).invoke(2).store(Scratch());
      break;
    }
  }
  // Return a digest of the scratch state so every statement's value flow
  // is observable.
  B.load(2);
  for (int32_t Slot = 3; Slot < 2 + NumScratch; ++Slot)
    B.load(Slot).add();
  B.ret();
  return B.take();
}

Module buildRandomModule(uint64_t Seed) {
  SplitMix64 R(Seed);
  Module M;
  M.NumStatics = 4;
  M.addMethod(buildMain(R)); // id 0
  M.addMethod(buildLeaf(R)); // id 1
  M.addMethod(buildReadMostly()); // id 2
  return M;
}

struct RunResult {
  std::vector<int64_t> Results;
  std::vector<int32_t> Errors; // 0 = ok, else GuestError code
  std::vector<int64_t> Fields;
  std::vector<int64_t> Statics;
  uint64_t ReadOnlyEntries = 0;
  uint64_t WriteEntries = 0;
  uint64_t ElisionAttempts = 0;
  uint64_t ElisionSuccesses = 0;
  uint64_t ElisionFailures = 0;
  uint64_t Fallbacks = 0;
  uint64_t AtomicRmws = 0;
  std::vector<std::vector<uint64_t>> ProfileCounts;
};

RunResult run(uint64_t Seed, Interpreter::Options Opts) {
  Interpreter I(DispatchDifferential::ctx(), buildRandomModule(Seed), Opts);
  GuestObject *Obj = I.allocateObject();
  SplitMix64 R(Seed ^ 0x9e3779b97f4a7c15ULL);
  for (uint32_t F = 0; F < ObjectIntFields; ++F)
    Obj->F[F].write(static_cast<int64_t>(R.next() % 1000));
  for (uint32_t S = 0; S < 4; ++S)
    I.setStaticCell(S, static_cast<int64_t>(R.next() % 1000));

  ThreadRegistry::current().PollFlag.store(0);
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  RunResult Out;
  for (int N = 0; N < 12; ++N) {
    // Every 4th arg is 0: triggers the division guest error and keeps the
    // read-mostly helper on its pure-read path.
    int64_t X = (N % 4 == 0) ? 0 : static_cast<int64_t>(R.next() % 7) + 1;
    try {
      Out.Results.push_back(
          I.invoke("main", {Value::ofInt(X), Value::ofRef(Obj)}).asInt());
      Out.Errors.push_back(0);
    } catch (GuestError &E) {
      Out.Results.push_back(0);
      Out.Errors.push_back(E.Code);
    }
  }
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  for (uint32_t F = 0; F < ObjectIntFields; ++F)
    Out.Fields.push_back(Obj->F[F].read());
  for (uint32_t S = 0; S < 4; ++S)
    Out.Statics.push_back(I.staticCell(S));
  Out.ReadOnlyEntries = After.ReadOnlyEntries - Before.ReadOnlyEntries;
  Out.WriteEntries = After.WriteEntries - Before.WriteEntries;
  Out.ElisionAttempts = After.ElisionAttempts - Before.ElisionAttempts;
  Out.ElisionSuccesses = After.ElisionSuccesses - Before.ElisionSuccesses;
  Out.ElisionFailures = After.ElisionFailures - Before.ElisionFailures;
  Out.Fallbacks = After.Fallbacks - Before.Fallbacks;
  Out.AtomicRmws = After.AtomicRmws - Before.AtomicRmws;
  if (Opts.CollectProfile)
    Out.ProfileCounts = I.profile().Counts;
  return Out;
}

void expectSame(const RunResult &A, const RunResult &B, uint64_t Seed) {
  EXPECT_EQ(A.Results, B.Results) << "seed " << Seed;
  EXPECT_EQ(A.Errors, B.Errors) << "seed " << Seed;
  EXPECT_EQ(A.Fields, B.Fields) << "seed " << Seed;
  EXPECT_EQ(A.Statics, B.Statics) << "seed " << Seed;
  EXPECT_EQ(A.ReadOnlyEntries, B.ReadOnlyEntries) << "seed " << Seed;
  EXPECT_EQ(A.WriteEntries, B.WriteEntries) << "seed " << Seed;
  EXPECT_EQ(A.ElisionAttempts, B.ElisionAttempts) << "seed " << Seed;
  EXPECT_EQ(A.ElisionSuccesses, B.ElisionSuccesses) << "seed " << Seed;
  EXPECT_EQ(A.ElisionFailures, B.ElisionFailures) << "seed " << Seed;
  EXPECT_EQ(A.Fallbacks, B.Fallbacks) << "seed " << Seed;
  EXPECT_EQ(A.AtomicRmws, B.AtomicRmws) << "seed " << Seed;
  EXPECT_EQ(A.ProfileCounts, B.ProfileCounts) << "seed " << Seed;
}

} // namespace

TEST_F(DispatchDifferential, ThreadedMatchesReferenceUnderSolero) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Interpreter::Options Threaded;
    Threaded.Mode = DispatchMode::Threaded;
    Interpreter::Options Reference;
    Reference.Mode = DispatchMode::Reference;
    expectSame(run(Seed, Threaded), run(Seed, Reference), Seed);
  }
}

TEST_F(DispatchDifferential, ThreadedMatchesReferenceUnderConventionalLocks) {
  for (uint64_t Seed = 100; Seed <= 115; ++Seed) {
    Interpreter::Options Threaded;
    Threaded.Mode = DispatchMode::Threaded;
    Threaded.UseConventionalLocks = true;
    Interpreter::Options Reference;
    Reference.Mode = DispatchMode::Reference;
    Reference.UseConventionalLocks = true;
    expectSame(run(Seed, Threaded), run(Seed, Reference), Seed);
  }
}

TEST_F(DispatchDifferential, FusionIsSemanticallyInvisible) {
  for (uint64_t Seed = 200; Seed <= 212; ++Seed) {
    Interpreter::Options Fused;
    Fused.Mode = DispatchMode::Threaded;
    Interpreter::Options Unfused;
    Unfused.Mode = DispatchMode::Threaded;
    Unfused.FuseSuperinstructions = false;
    expectSame(run(Seed, Fused), run(Seed, Unfused), Seed);
  }
}

TEST_F(DispatchDifferential, BakedProfileCountsMatchReference) {
  // The threaded engine's translation-time ProfileCount instrumentation
  // must reproduce the reference engine's per-original-pc counts exactly.
  for (uint64_t Seed = 300; Seed <= 308; ++Seed) {
    Interpreter::Options Threaded;
    Threaded.Mode = DispatchMode::Threaded;
    Threaded.CollectProfile = true;
    Interpreter::Options Reference;
    Reference.Mode = DispatchMode::Reference;
    Reference.CollectProfile = true;
    expectSame(run(Seed, Threaded), run(Seed, Reference), Seed);
  }
}

TEST_F(DispatchDifferential, StepBudgetAgreesAcrossEngines) {
  // Budget counts back edges + invokes identically in both engines: a
  // tight budget must trip (or not) at the same program for both.
  MethodBuilder B("spin", 1, 1);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.bind(Loop);
  B.load(0).jumpIfZero(Done);
  B.load(0).constant(-1).add().store(0);
  B.jump(Loop);
  B.bind(Done);
  B.constant(0).ret();
  Module M;
  M.addMethod(B.take());
  for (DispatchMode Mode : {DispatchMode::Threaded, DispatchMode::Reference}) {
    Module M2 = M;
    Interpreter::Options Opts;
    Opts.Mode = Mode;
    Opts.MaxSteps = 1u << 20; // plenty for 1000 iterations of back edges
    Interpreter I(ctx(), std::move(M2), Opts);
    EXPECT_EQ(I.invoke("spin", {Value::ofInt(1000)}).asInt(), 0);
  }
}
