//===- tests/AssemblerTest.cpp - CSIR text format tests -------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/Assembler.h"

#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"
#include "jit/Verifier.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

using namespace solero;
using namespace solero::jit;

namespace {

using Assembler = SuiteContext<>;

const char *FactorialSource = R"(
; iterative factorial
statics 0

method fact(params=1, locals=2) {
  const 1
  store 1
Loop:
  load 0
  jz Done
  load 1
  load 0
  mul
  store 1
  load 0
  const 1
  sub
  store 0
  jump Loop
Done:
  load 1
  return
}
)";

} // namespace

TEST_F(Assembler, ParsesAndRunsFactorial) {
  AsmResult R = assembleModule(FactorialSource);
  ASSERT_TRUE(R.Ok) << R.Error << " (line " << R.Line << ")";
  ASSERT_TRUE(verifyModule(R.M).Ok);
  Interpreter I(ctx(), std::move(R.M));
  EXPECT_EQ(I.invoke("fact", {Value::ofInt(6)}).asInt(), 720);
}

TEST_F(Assembler, ParsesAnnotationsAndStatics) {
  AsmResult R = assembleModule(R"(
statics 7
method tagged(params=1, locals=1) @SoleroReadOnly {
  load 0
  syncenter
  syncexit
  const 0
  return
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.M.NumStatics, 7u);
  EXPECT_TRUE(R.M.method(0).AnnotatedReadOnly);
  EXPECT_FALSE(R.M.method(0).AnnotatedReadMostly);
}

TEST_F(Assembler, ResolvesForwardInvokes) {
  AsmResult R = assembleModule(R"(
method main(params=0, locals=0) {
  const 20
  invoke double  ; defined below
  return
}
method double(params=1, locals=1) {
  load 0
  const 2
  mul
  return
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  Interpreter I(ctx(), std::move(R.M));
  EXPECT_EQ(I.invoke("main", {}).asInt(), 40);
}

TEST_F(Assembler, DiagnosesUnknownOpcodeWithLine) {
  AsmResult R = assembleModule(R"(
method bad(params=0, locals=0) {
  const 1
  frobnicate
  return
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
  EXPECT_EQ(R.Line, 4);
}

TEST_F(Assembler, DiagnosesUndefinedLabel) {
  AsmResult R = assembleModule(R"(
method bad(params=0, locals=0) {
  jump Nowhere
  const 0
  return
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("Nowhere"), std::string::npos);
}

TEST_F(Assembler, DiagnosesUnclosedMethod) {
  AsmResult R = assembleModule("method open(params=0, locals=0) {\n  const 0\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not closed"), std::string::npos);
}

TEST_F(Assembler, DiagnosesUnknownInvokeTarget) {
  AsmResult R = assembleModule(R"(
method main(params=0, locals=0) {
  invoke ghost
  return
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("ghost"), std::string::npos);
}

TEST_F(Assembler, RoundTripsThroughWriter) {
  // Build a representative module programmatically, write it out, parse it
  // back, and check instruction-level equality.
  Module M;
  {
    MethodBuilder B("helper", 1, 1);
    B.load(0).constant(3).mul().ret();
    M.addMethod(B.take());
  }
  {
    MethodBuilder B("main", 2, 3);
    B.annotateReadMostly();
    auto Loop = B.newLabel(), Done = B.newLabel();
    B.load(0).syncEnter();
    B.load(1).store(2);
    B.bind(Loop);
    B.load(2).jumpIfZero(Done);
    B.load(2).constant(1).sub().store(2);
    B.jump(Loop);
    B.bind(Done);
    B.load(0).getField(2).invoke(0).pop();
    B.syncExit();
    B.constant(0).ret();
    M.addMethod(B.take());
  }
  M.NumStatics = 3;

  std::string Text = writeModuleText(M);
  AsmResult R = assembleModule(Text);
  ASSERT_TRUE(R.Ok) << R.Error << "\n" << Text;
  ASSERT_EQ(R.M.methodCount(), M.methodCount());
  EXPECT_EQ(R.M.NumStatics, M.NumStatics);
  for (uint32_t Id = 0; Id < M.methodCount(); ++Id) {
    const Method &A = M.method(Id), &B = R.M.method(Id);
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.NumParams, B.NumParams);
    EXPECT_EQ(A.NumLocals, B.NumLocals);
    EXPECT_EQ(A.AnnotatedReadOnly, B.AnnotatedReadOnly);
    EXPECT_EQ(A.AnnotatedReadMostly, B.AnnotatedReadMostly);
    ASSERT_EQ(A.Code.size(), B.Code.size()) << A.Name;
    for (std::size_t Pc = 0; Pc < A.Code.size(); ++Pc) {
      EXPECT_EQ(A.Code[Pc].Op, B.Code[Pc].Op) << A.Name << " pc " << Pc;
      EXPECT_EQ(A.Code[Pc].A, B.Code[Pc].A) << A.Name << " pc " << Pc;
    }
  }
  // And the round-tripped module still verifies and runs.
  ASSERT_TRUE(verifyModule(R.M).Ok);
}

TEST_F(Assembler, GuestProgramWithMonitorOpsRoundTrips) {
  AsmResult R = assembleModule(R"(
method pingpong(params=1, locals=1) {
  load 0
  syncenter
  load 0
  notifyall
  syncexit
  const 0
  return
}
)");
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Text = writeModuleText(R.M);
  AsmResult R2 = assembleModule(Text);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.M.method(0).Code.size(), R.M.method(0).Code.size());
  // Execute it under SOLERO for good measure.
  Interpreter I(ctx(), std::move(R2.M));
  GuestObject *Obj = I.allocateObject();
  EXPECT_EQ(I.invoke("pingpong", {Value::ofRef(Obj)}).asInt(), 0);
}
