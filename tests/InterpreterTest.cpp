//===- tests/InterpreterTest.cpp - CSIR execution tests -------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/Interpreter.h"

#include "jit/MethodBuilder.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::jit;

namespace {

using InterpreterTest = SuiteContext<>;

ProtocolCounters totals() { return ThreadRegistry::instance().totalCounters(); }

} // namespace

TEST_F(InterpreterTest, ArithmeticAndControlFlow) {
  // Iterative factorial.
  MethodBuilder B("fact", 1, 2);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.constant(1).store(1);
  B.bind(Loop);
  B.load(0).jumpIfZero(Done);
  B.load(1).load(0).mul().store(1);
  B.load(0).constant(1).sub().store(0);
  B.jump(Loop);
  B.bind(Done);
  B.load(1).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  EXPECT_EQ(I.invoke("fact", {Value::ofInt(10)}).asInt(), 3628800);
}

TEST_F(InterpreterTest, InvokeAndRecursion) {
  Module M;
  {
    MethodBuilder Fib("fib", 1, 1);
    auto BaseL = Fib.newLabel();
    Fib.load(0).constant(2).cmpLt().jumpIfNonZero(BaseL);
    Fib.load(0).constant(1).sub().invoke(0);
    Fib.load(0).constant(2).sub().invoke(0);
    Fib.add().ret();
    Fib.bind(BaseL);
    Fib.load(0).ret();
    M.addMethod(Fib.take());
  }
  Interpreter I(ctx(), std::move(M));
  EXPECT_EQ(I.invoke("fib", {Value::ofInt(15)}).asInt(), 610);
}

TEST_F(InterpreterTest, GuestErrorsPropagate) {
  MethodBuilder B("div", 2, 2);
  B.load(0).load(1).div().ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  EXPECT_EQ(I.invoke("div", {Value::ofInt(10), Value::ofInt(2)}).asInt(), 5);
  try {
    I.invoke("div", {Value::ofInt(1), Value::ofInt(0)});
    FAIL() << "expected GuestError";
  } catch (GuestError &E) {
    EXPECT_EQ(E.Code, static_cast<int32_t>(GuestErrorKind::Arithmetic));
  }
}

TEST_F(InterpreterTest, NullDereferenceThrows) {
  MethodBuilder B("deref", 0, 0);
  B.pushNull().getField(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  try {
    I.invoke("deref", {});
    FAIL() << "expected GuestError";
  } catch (GuestError &E) {
    EXPECT_EQ(E.Code, static_cast<int32_t>(GuestErrorKind::NullPointer));
  }
}

TEST_F(InterpreterTest, FieldsAndStatics) {
  MethodBuilder B("swapIntoStatic", 1, 1);
  B.load(0).getField(2).putStatic(1);
  B.load(0).constant(77).putField(3);
  B.getStatic(1).ret();
  Module M;
  M.NumStatics = 2;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  GuestObject *Obj = I.allocateObject();
  Obj->F[2].write(123);
  EXPECT_EQ(I.invoke("swapIntoStatic", {Value::ofRef(Obj)}).asInt(), 123);
  EXPECT_EQ(Obj->F[3].read(), 77);
  EXPECT_EQ(I.staticCell(1), 123);
}

TEST_F(InterpreterTest, ReadOnlyRegionElides) {
  // synchronized (obj) { return obj.F0; }
  MethodBuilder B("get", 1, 2);
  B.load(0).syncEnter();
  B.load(0).getField(0).store(1);
  B.syncExit();
  B.load(1).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  ASSERT_EQ(I.classification().regions(0)[0].Kind, RegionKind::ReadOnly);

  GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(55);
  ProtocolCounters Before = totals();
  EXPECT_EQ(I.invoke("get", {Value::ofRef(Obj)}).asInt(), 55);
  ProtocolCounters After = totals();
  EXPECT_EQ(After.ElisionSuccesses - Before.ElisionSuccesses, 1u);
  // The lock word was never touched.
  EXPECT_EQ(Obj->Hdr.word().load(), 0u);
}

TEST_F(InterpreterTest, WritingRegionLocks) {
  // synchronized (obj) { obj.F0 = obj.F0 + 1; }
  MethodBuilder B("inc", 1, 1);
  B.load(0).syncEnter();
  B.load(0).load(0).getField(0).constant(1).add().putField(0);
  B.syncExit();
  B.load(0).getField(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  ASSERT_EQ(I.classification().regions(0)[0].Kind, RegionKind::Writing);

  GuestObject *Obj = I.allocateObject();
  EXPECT_EQ(I.invoke("inc", {Value::ofRef(Obj)}).asInt(), 1);
  EXPECT_EQ(I.invoke("inc", {Value::ofRef(Obj)}).asInt(), 2);
  // Two writing sections advanced the SOLERO counter twice.
  EXPECT_EQ(Obj->Hdr.word().load(), 2 * lockword::CounterUnit);
}

TEST_F(InterpreterTest, ReturnInsideRegionReleasesLock) {
  MethodBuilder B("early", 1, 1);
  B.load(0).syncEnter();
  B.load(0).getField(0).ret(); // return from inside the region
  B.syncExit();
  B.constant(-1).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(7);
  EXPECT_EQ(I.invoke("early", {Value::ofRef(Obj)}).asInt(), 7);
  EXPECT_TRUE(lockword::soleroIsFree(Obj->Hdr.word().load()));
}

TEST_F(InterpreterTest, GuestThrowInsideElidedRegionIsGenuine) {
  MethodBuilder B("thrower", 1, 1);
  auto NoThrow = B.newLabel();
  B.load(0).syncEnter();
  B.load(0).getField(0).jumpIfZero(NoThrow);
  B.constant(200).throwError();
  B.bind(NoThrow);
  B.syncExit();
  B.constant(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  ASSERT_EQ(I.classification().regions(0)[0].Kind, RegionKind::ReadOnly);
  GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(1);
  try {
    I.invoke("thrower", {Value::ofRef(Obj)});
    FAIL() << "expected GuestError";
  } catch (GuestError &E) {
    EXPECT_EQ(E.Code, 200);
  }
  EXPECT_TRUE(lockword::soleroIsFree(Obj->Hdr.word().load()));
}

TEST_F(InterpreterTest, ConventionalModeLocksReadOnlyRegions) {
  MethodBuilder B("get", 1, 2);
  B.load(0).syncEnter();
  B.load(0).getField(0).store(1);
  B.syncExit();
  B.load(1).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter::Options Opts;
  Opts.UseConventionalLocks = true;
  Interpreter I(ctx(), std::move(M), Opts);
  GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(9);
  ProtocolCounters Before = totals();
  EXPECT_EQ(I.invoke("get", {Value::ofRef(Obj)}).asInt(), 9);
  ProtocolCounters After = totals();
  EXPECT_EQ(After.ElisionAttempts - Before.ElisionAttempts, 0u);
  EXPECT_GE(After.AtomicRmws - Before.AtomicRmws, 1u);
}

TEST_F(InterpreterTest, ProfileDrivenReclassification) {
  // A region with a write behind an almost-never-true condition: Writing
  // at first, ReadMostly after profiling + reclassification (Section 5).
  MethodBuilder B("mostly", 2, 2);
  auto Skip = B.newLabel();
  B.load(0).syncEnter();
  B.load(1).jumpIfZero(Skip);
  B.load(0).constant(1).putField(1);
  B.bind(Skip);
  B.load(0).getField(0).pop();
  B.syncExit();
  B.constant(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter::Options Opts;
  Opts.CollectProfile = true;
  Interpreter I(ctx(), std::move(M), Opts);
  ASSERT_EQ(I.classification().regions(0)[0].Kind, RegionKind::Writing);

  GuestObject *Obj = I.allocateObject();
  // Profile: 200 read-only executions, 1 writing execution.
  for (int N = 0; N < 200; ++N)
    I.invoke("mostly", {Value::ofRef(Obj), Value::ofInt(0)});
  I.invoke("mostly", {Value::ofRef(Obj), Value::ofInt(1)});
  I.reclassifyWithProfile();
  EXPECT_EQ(I.classification().regions(0)[0].Kind, RegionKind::ReadMostly);

  // Execution still works in both directions after reclassification.
  ProtocolCounters Before = totals();
  I.invoke("mostly", {Value::ofRef(Obj), Value::ofInt(0)});
  I.invoke("mostly", {Value::ofRef(Obj), Value::ofInt(1)});
  ProtocolCounters After = totals();
  EXPECT_EQ(Obj->F[1].read(), 1);
  EXPECT_GE(After.ElisionSuccesses - Before.ElisionSuccesses, 2u);
}

TEST_F(InterpreterTest, ReadMostlyUpgradeWritesCorrectly) {
  MethodBuilder B("upd", 2, 2);
  B.annotateReadMostly();
  auto Skip = B.newLabel();
  B.load(0).syncEnter();
  B.load(1).jumpIfZero(Skip);
  B.load(0).load(0).getField(0).constant(1).add().putField(0);
  B.bind(Skip);
  B.syncExit();
  B.load(0).getField(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  ASSERT_EQ(I.classification().regions(0)[0].Kind, RegionKind::ReadMostly);
  GuestObject *Obj = I.allocateObject();
  EXPECT_EQ(I.invoke("upd", {Value::ofRef(Obj), Value::ofInt(1)}).asInt(), 1);
  EXPECT_EQ(I.invoke("upd", {Value::ofRef(Obj), Value::ofInt(0)}).asInt(), 1);
  EXPECT_EQ(I.invoke("upd", {Value::ofRef(Obj), Value::ofInt(1)}).asInt(), 2);
  EXPECT_TRUE(lockword::soleroIsFree(Obj->Hdr.word().load()));
}

TEST_F(InterpreterTest, ConcurrentGuestCountersAreExact) {
  // Guest threads increment a shared counter in a writing region while
  // other guest threads read it in an elided region: the final count must
  // be exact and reads monotonic.
  MethodBuilder Inc("inc", 1, 1);
  Inc.load(0).syncEnter();
  Inc.load(0).load(0).getField(0).constant(1).add().putField(0);
  Inc.syncExit();
  Inc.constant(0).ret();
  MethodBuilder Get("get", 1, 2);
  Get.load(0).syncEnter();
  Get.load(0).getField(0).store(1);
  Get.syncExit();
  Get.load(1).ret();
  Module M;
  M.addMethod(Inc.take());
  M.addMethod(Get.take());
  Interpreter I(ctx(), std::move(M));
  GuestObject *Obj = I.allocateObject();

  constexpr int Writers = 2, Readers = 2, Incs = 4000;
  std::atomic<bool> Stop{false};
  std::atomic<bool> Monotonic{true};
  std::vector<std::thread> Ts;
  for (int W = 0; W < Writers; ++W)
    Ts.emplace_back([&] {
      for (int N = 0; N < Incs; ++N)
        I.invoke("inc", {Value::ofRef(Obj)});
    });
  for (int R = 0; R < Readers; ++R)
    Ts.emplace_back([&] {
      int64_t Last = 0;
      while (!Stop.load()) {
        int64_t V = I.invoke("get", {Value::ofRef(Obj)}).asInt();
        if (V < Last)
          Monotonic.store(false);
        Last = V;
      }
    });
  for (int W = 0; W < Writers; ++W)
    Ts[static_cast<std::size_t>(W)].join();
  Stop.store(true);
  for (int T = Writers; T < Writers + Readers; ++T)
    Ts[static_cast<std::size_t>(T)].join();
  EXPECT_EQ(Obj->F[0].read(), static_cast<int64_t>(Writers) * Incs);
  EXPECT_TRUE(Monotonic.load());
}

TEST_F(InterpreterTest, LoopInsideElidedRegionIsRescuable) {
  // A bounded loop inside a read-only region: back-edge check points run
  // (we assert via poll flag consumption) and the result is correct.
  // Locals: 0=obj, 1=n, 2=acc, 3=i. The loop only writes scratch locals
  // (2, 3) that are dead at region entry, so the region stays elidable.
  MethodBuilder B("sumN", 2, 4);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.load(0).syncEnter();
  B.constant(0).store(2);
  B.load(1).store(3);
  B.bind(Loop);
  B.load(3).jumpIfZero(Done);
  B.load(2).load(0).getField(0).add().store(2);
  B.load(3).constant(1).sub().store(3);
  B.jump(Loop);
  B.bind(Done);
  B.syncExit();
  B.load(2).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  ASSERT_EQ(I.classification().regions(0)[0].Kind, RegionKind::ReadOnly);
  GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(3);
  ThreadRegistry::current().PollFlag.store(1);
  EXPECT_EQ(I.invoke("sumN", {Value::ofRef(Obj), Value::ofInt(10)}).asInt(),
            30);
  // A back edge consumed the poll flag.
  EXPECT_EQ(ThreadRegistry::current().PollFlag.load(), 0u);
}
