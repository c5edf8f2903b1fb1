//===- tests/ArrayTest.cpp - CSIR array tests -----------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"
#include "jit/ReadOnlyClassifier.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

using namespace solero;
using namespace solero::jit;

namespace {

using Arrays = SuiteContext<>;

} // namespace

TEST_F(Arrays, NewArrayLoadStoreRoundTrip) {
  // arr = new[5]; arr[2] = 42; return arr[2] + arr.length;
  MethodBuilder B("roundtrip", 0, 1);
  B.constant(5).newArray().store(0);
  B.load(0).constant(2).constant(42).astore();
  B.load(0).constant(2).aload();
  B.load(0).arrayLen().add();
  B.ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  EXPECT_EQ(I.invoke("roundtrip", {}).asInt(), 47);
}

TEST_F(Arrays, FreshArrayIsZeroed) {
  MethodBuilder B("zeroed", 0, 1);
  B.constant(8).newArray().store(0);
  B.load(0).constant(7).aload().ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  EXPECT_EQ(I.invoke("zeroed", {}).asInt(), 0);
}

TEST_F(Arrays, BoundsAndSizeErrors) {
  auto RunExpectingError = [&](auto Build, GuestErrorKind Kind) {
    MethodBuilder B("bad", 0, 1);
    Build(B);
    Module M;
    M.addMethod(B.take());
    Interpreter I(ctx(), std::move(M));
    try {
      I.invoke("bad", {});
      FAIL() << "expected GuestError";
    } catch (GuestError &E) {
      EXPECT_EQ(E.Code, static_cast<int32_t>(Kind));
    }
  };
  RunExpectingError(
      [](MethodBuilder &B) {
        B.constant(3).newArray().store(0);
        B.load(0).constant(3).aload().ret(); // index == length
      },
      GuestErrorKind::ArrayIndexOutOfBounds);
  RunExpectingError(
      [](MethodBuilder &B) {
        B.constant(3).newArray().store(0);
        B.load(0).constant(-1).constant(5).astore();
        B.constant(0).ret();
      },
      GuestErrorKind::ArrayIndexOutOfBounds);
  RunExpectingError(
      [](MethodBuilder &B) {
        B.constant(-4).newArray().pop();
        B.constant(0).ret();
      },
      GuestErrorKind::NegativeArraySize);
}

TEST_F(Arrays, SummingLoopOverArray) {
  // sum = 0; for (i = 0; i < arr.length; i++) sum += arr[i];
  MethodBuilder B("sum", 1, 3);
  auto Loop = B.newLabel(), Done = B.newLabel();
  B.constant(0).store(1); // sum
  B.constant(0).store(2); // i
  B.bind(Loop);
  B.load(2).load(0).arrayLen().cmpLt().jumpIfZero(Done);
  B.load(1).load(0).load(2).aload().add().store(1);
  B.load(2).constant(1).add().store(2);
  B.jump(Loop);
  B.bind(Done);
  B.load(1).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  GuestArray *Arr = I.allocateArray(10);
  for (int64_t K = 0; K < 10; ++K)
    Arr->Elems[static_cast<std::size_t>(K)].write(K + 1);
  EXPECT_EQ(I.invoke("sum", {Value::ofArr(Arr)}).asInt(), 55);
}

TEST_F(Arrays, ArrayReadInsideRegionIsReadOnly) {
  // synchronized (obj) { x = arr[0]; } — ALoad is not a write.
  MethodBuilder B("readArr", 2, 3);
  B.load(0).syncEnter();
  B.load(1).constant(0).aload().store(2);
  B.syncExit();
  B.load(2).ret();
  Module M;
  M.addMethod(B.take());
  EXPECT_EQ(classifyModule(M).regions(0)[0].Kind, RegionKind::ReadOnly);
}

TEST_F(Arrays, ArrayWriteInsideRegionIsWriting) {
  // synchronized (obj) { arr[0] = 1; } — the Section 3.2 exclusion.
  MethodBuilder B("writeArr", 2, 2);
  B.load(0).syncEnter();
  B.load(1).constant(0).constant(1).astore();
  B.syncExit();
  B.constant(0).ret();
  Module M;
  M.addMethod(B.take());
  ClassifiedModule C = classifyModule(M);
  const ClassifiedRegion &R = C.regions(0)[0];
  EXPECT_EQ(R.Kind, RegionKind::Writing);
  EXPECT_EQ(R.primary().Code, DiagCode::ArrayWrite);
  EXPECT_NE(regionReason(M, R).find("astore"), std::string::npos);
}

TEST_F(Arrays, ElidedArrayReadExecutes) {
  MethodBuilder B("readArr", 2, 3);
  B.load(0).syncEnter();
  B.load(1).constant(1).aload().store(2);
  B.syncExit();
  B.load(2).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  GuestObject *Obj = I.allocateObject();
  GuestArray *Arr = I.allocateArray(4);
  Arr->Elems[1].write(99);
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(
      I.invoke("readArr", {Value::ofRef(Obj), Value::ofArr(Arr)}).asInt(),
      99);
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.ElisionSuccesses - Before.ElisionSuccesses, 1u);
}

TEST_F(Arrays, VerifierRejectsArrayStackUnderflow) {
  MethodBuilder B("bad", 0, 0);
  B.aload().ret(); // needs two operands
  Module M;
  M.addMethod(B.take());
  EXPECT_FALSE(verifyMethod(M, 0).Ok);
}
