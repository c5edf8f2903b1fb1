//===- tests/GuestMonitorTest.cpp - Guest wait/notify tests ---------------===//
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

using namespace solero;
using namespace solero::jit;

namespace {

class GuestMonitor : public SuiteContext<> {
public:
  static void SetUpTestSuite() {
    RuntimeConfig C;
    C.ParkMicros = std::chrono::microseconds(200);
    start(C);
  }
};

/// consume(obj):  synchronized (obj) { while (obj.F0 == 0) wait(obj);
///                v = obj.F0; obj.F0 = 0; notifyAll(obj); return v; }
/// produce(obj,v):synchronized (obj) { while (obj.F0 != 0) wait(obj);
///                obj.F0 = v; notifyAll(obj); return v; }
Module buildHandshake() {
  Module M;
  {
    MethodBuilder B("consume", 1, 2);
    auto Check = B.newLabel(), Ready = B.newLabel();
    B.load(0).syncEnter();
    B.bind(Check);
    B.load(0).getField(0).jumpIfNonZero(Ready);
    B.load(0).monitorWait();
    B.jump(Check);
    B.bind(Ready);
    B.load(0).getField(0).store(1);
    B.load(0).constant(0).putField(0);
    B.load(0).monitorNotifyAll();
    B.syncExit();
    B.load(1).ret();
    M.addMethod(B.take());
  }
  {
    MethodBuilder B("produce", 2, 2);
    auto Check = B.newLabel(), Empty = B.newLabel();
    B.load(0).syncEnter();
    B.bind(Check);
    B.load(0).getField(0).jumpIfZero(Empty);
    B.load(0).monitorWait();
    B.jump(Check);
    B.bind(Empty);
    B.load(0).load(1).putField(0);
    B.load(0).monitorNotifyAll();
    B.syncExit();
    B.load(1).ret();
    M.addMethod(B.take());
  }
  return M;
}

} // namespace

TEST_F(GuestMonitor, WaitRegionsAreClassifiedWriting) {
  // wait/notify are side effects: never elidable (Section 3.2).
  Module M = buildHandshake();
  ClassifiedModule C = classifyModule(M);
  EXPECT_EQ(C.regions(0)[0].Kind, RegionKind::Writing);
  EXPECT_EQ(C.regions(1)[0].Kind, RegionKind::Writing);
}

TEST_F(GuestMonitor, ProducerConsumerUnderSolero) {
  Interpreter I(ctx(), buildHandshake());
  GuestObject *Box = I.allocateObject();
  int64_t Sum = 0;
  std::thread Consumer([&] {
    for (int N = 0; N < 50; ++N)
      Sum += I.invoke("consume", {Value::ofRef(Box)}).asInt();
  });
  std::thread Producer([&] {
    for (int N = 1; N <= 50; ++N)
      I.invoke("produce", {Value::ofRef(Box), Value::ofInt(N)});
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(Sum, 50 * 51 / 2);
  EXPECT_TRUE(lockword::soleroIsFree(Box->Hdr.word().load()));
}

TEST_F(GuestMonitor, ProducerConsumerUnderConventional) {
  Interpreter::Options Opts;
  Opts.UseConventionalLocks = true;
  Interpreter I(ctx(), buildHandshake(), Opts);
  GuestObject *Box = I.allocateObject();
  int64_t Sum = 0;
  std::thread Consumer([&] {
    for (int N = 0; N < 50; ++N)
      Sum += I.invoke("consume", {Value::ofRef(Box)}).asInt();
  });
  std::thread Producer([&] {
    for (int N = 1; N <= 50; ++N)
      I.invoke("produce", {Value::ofRef(Box), Value::ofInt(N)});
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(Sum, 50 * 51 / 2);
  EXPECT_EQ(Box->Hdr.word().load(), 0u);
}

TEST_F(GuestMonitor, WaitOutsideMonitorThrows) {
  MethodBuilder B("badWait", 1, 1);
  B.load(0).monitorWait();
  B.constant(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  GuestObject *Obj = I.allocateObject();
  try {
    I.invoke("badWait", {Value::ofRef(Obj)});
    FAIL() << "expected GuestError";
  } catch (GuestError &E) {
    EXPECT_EQ(E.Code,
              static_cast<int32_t>(GuestErrorKind::IllegalMonitorState));
  }
}

TEST_F(GuestMonitor, NotifyOnDifferentObjectThrows) {
  // synchronized (a) { notify(b); } — b's monitor is not held.
  MethodBuilder B("cross", 2, 2);
  B.load(0).syncEnter();
  B.load(1).monitorNotify();
  B.syncExit();
  B.constant(0).ret();
  Module M;
  M.addMethod(B.take());
  Interpreter I(ctx(), std::move(M));
  GuestObject *A = I.allocateObject(), *Bo = I.allocateObject();
  try {
    I.invoke("cross", {Value::ofRef(A), Value::ofRef(Bo)});
    FAIL() << "expected GuestError";
  } catch (GuestError &E) {
    EXPECT_EQ(E.Code,
              static_cast<int32_t>(GuestErrorKind::IllegalMonitorState));
  }
  // The enclosing region's monitor was released by the unwinding.
  EXPECT_TRUE(lockword::soleroIsFree(A->Hdr.word().load()));
}
