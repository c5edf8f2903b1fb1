//===- tests/EscapeAnalysisTest.cpp - In-region allocation facts ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/analysis/EscapeAnalysis.h"

#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

using namespace solero;
using namespace solero::jit;

namespace {

Module moduleOf(Method M, uint32_t NumStatics = 4) {
  Module Mod;
  Mod.NumStatics = NumStatics;
  Mod.addMethod(std::move(M));
  return Mod;
}

/// Event bus off: a mid-run poll-flag tick would abort a speculation and
/// skew the elision counters the end-to-end test asserts on.
class EscapeClassifier : public SuiteContext<> {
public:
  static void SetUpTestSuite() {
    RuntimeConfig C;
    C.AsyncEventPeriod = std::chrono::microseconds(0);
    start(C);
  }
};

/// synchronized (this) { h = new; h.F0 = this.F0; h.F1 = this.F1 + 1;
/// return-local h.F0 + h.F1 } — the "allocate a result holder, fill it,
/// read it back" shape the escape analysis exists for.
Method buildSnapshot() {
  MethodBuilder B("snapshot", 1, 3);
  B.load(0).syncEnter();                      // pc 0, 1
  B.newObject().store(1);                     // pc 2, 3
  B.load(1).load(0).getField(0).putField(0);  // pc 4..7
  B.load(1).load(0).getField(1).constant(1).add().putField(1); // pc 8..13
  B.load(1).getField(0).load(1).getField(1).add().store(2);    // pc 14..19
  B.syncExit();                               // pc 20
  B.load(2).ret();
  return B.take();
}

} // namespace

TEST(EscapeAnalysis, ReturnEscapes) {
  MethodBuilder B("retObj", 0, 0);
  B.newObject().ret(); // pc 0, 1
  Module M = moduleOf(B.take());
  EscapeAnalysis E(M, 0);
  auto It = E.escapes().find(0);
  ASSERT_NE(It, E.escapes().end());
  EXPECT_EQ(It->second.Pc, 1u);
  EXPECT_EQ(It->second.Way, EscapeWay::Returned);
}

TEST(EscapeAnalysis, FieldStoreEscapes) {
  // this.R[0] = new — the fresh object is published to the heap.
  MethodBuilder B("publish", 1, 1);
  B.load(0).newObject().putRef(0); // pc 0, 1, 2
  B.constant(0).ret();
  Module M = moduleOf(B.take());
  EscapeAnalysis E(M, 0);
  auto It = E.escapes().find(1);
  ASSERT_NE(It, E.escapes().end());
  EXPECT_EQ(It->second.Pc, 2u);
  EXPECT_EQ(It->second.Way, EscapeWay::StoredToHeap);
}

TEST(EscapeAnalysis, InvokeArgumentEscapes) {
  Module M;
  M.NumStatics = 0;
  {
    MethodBuilder Callee("sink", 1, 1);
    Callee.constant(0).ret();
    M.addMethod(Callee.take());
  }
  {
    MethodBuilder Caller("caller", 0, 0);
    Caller.newObject().invoke(0).ret(); // pc 0, 1
    M.addMethod(Caller.take());
  }
  EscapeAnalysis E(M, 1);
  auto It = E.escapes().find(0);
  ASSERT_NE(It, E.escapes().end());
  EXPECT_EQ(It->second.Pc, 1u);
  EXPECT_EQ(It->second.Way, EscapeWay::InvokeArg);
}

TEST(EscapeAnalysis, AliasThroughLocalStaysRegionLocal) {
  // The holder round-trips through a local; the write via the alias is
  // still provably to the in-region allocation.
  MethodBuilder B("alias", 1, 2);
  B.load(0).syncEnter();          // pc 0, 1
  B.newObject().store(1);         // pc 2, 3
  B.load(1).constant(5).putField(0); // pc 4, 5, 6
  B.load(1).getField(0).pop();    // pc 7, 8, 9
  B.syncExit().constant(0).ret();
  Module M = moduleOf(B.take());
  EscapeAnalysis E(M, 0);
  SyncRegion R{1, 10};
  EXPECT_TRUE(E.writeIsRegionLocal(6, R));
  EXPECT_EQ(E.writeBaseAllocPc(6), 2u);
  EXPECT_FALSE(E.writeBaseEscaped(6));
  EXPECT_TRUE(E.escapes().empty());
}

TEST(EscapeAnalysis, WriteAfterAliasedPublishIsEscaped) {
  // The local alias is published (this.R[0] = h) before the write: the
  // write's base is a known fresh allocation that has escaped.
  MethodBuilder B("pubThenWrite", 1, 2);
  B.load(0).syncEnter();             // pc 0, 1
  B.newObject().store(1);            // pc 2, 3
  B.load(0).load(1).putRef(0);       // pc 4, 5, 6 — publish
  B.load(1).constant(5).putField(0); // pc 7, 8, 9 — write after escape
  B.syncExit().constant(0).ret();
  Module M = moduleOf(B.take());
  EscapeAnalysis E(M, 0);
  SyncRegion R{1, 10};
  EXPECT_FALSE(E.writeIsRegionLocal(9, R));
  EXPECT_TRUE(E.writeBaseEscaped(9));
  EXPECT_EQ(E.writeBaseAllocPc(9), 2u);
}

TEST(EscapeAnalysis, AllocationOutsideRegionIsNotRegionLocal) {
  // Fresh and unescaped, but allocated before SyncEnter: a re-executed
  // region body would observe its own earlier write, so only allocations
  // from strictly inside the region qualify.
  MethodBuilder B("preAlloc", 1, 2);
  B.newObject().store(1);            // pc 0, 1
  B.load(0).syncEnter();             // pc 2, 3
  B.load(1).constant(5).putField(0); // pc 4, 5, 6
  B.syncExit().constant(0).ret();
  Module M = moduleOf(B.take());
  EscapeAnalysis E(M, 0);
  SyncRegion R{3, 7};
  EXPECT_FALSE(E.writeIsRegionLocal(6, R));
  EXPECT_FALSE(E.writeBaseEscaped(6)); // not escaped — just not in-region
  EXPECT_EQ(E.writeBaseAllocPc(6), 0u);
}

TEST_F(EscapeClassifier, SnapshotRegionFlipsWritingToReadOnly) {
  Module M = moduleOf(buildSnapshot());

  ClassifierOptions Off;
  Off.EscapeAnalysis = false;
  ClassifiedModule Plain = classifyModule(M, nullptr, Off);
  EXPECT_EQ(Plain.regions(0)[0].Kind, RegionKind::Writing);
  EXPECT_EQ(Plain.regions(0)[0].primary().Code, DiagCode::HeapWrite);

  ClassifiedModule Refined = classifyModule(M);
  const ClassifiedRegion &R = Refined.regions(0)[0];
  EXPECT_EQ(R.Kind, RegionKind::ReadOnly);
  EXPECT_EQ(R.primary().Code, DiagCode::NoWritesOrSideEffects);
  // Both holder writes are recorded as benign notes with provenance.
  int FreshNotes = 0;
  for (const Diagnostic &D : R.Diags)
    if (D.Code == DiagCode::FreshWrite) {
      ++FreshNotes;
      EXPECT_EQ(D.AllocPc, 2u);
    }
  EXPECT_EQ(FreshNotes, 2);
  EXPECT_TRUE(Refined.writeIsBenign(0, 7));
  EXPECT_TRUE(Refined.writeIsBenign(0, 13));
  EXPECT_FALSE(Refined.writeIsBenign(0, 4));
}

TEST_F(EscapeClassifier, EscapingHolderStaysWritingWithDiagnostic) {
  // synchronized { h = new; this.R[0] = h; h.F0 = 1; } — publishing the
  // holder disqualifies it; the write gets the escape diagnostic with
  // both pcs, and the rendering carries the fix hint.
  MethodBuilder B("leaky", 1, 2);
  B.load(0).syncEnter();             // pc 0, 1
  B.newObject().store(1);            // pc 2, 3
  B.load(0).load(1).putRef(0);       // pc 4, 5, 6
  B.load(1).constant(1).putField(0); // pc 7, 8, 9
  B.syncExit().constant(0).ret();
  Module M = moduleOf(B.take());
  ClassifiedModule C = classifyModule(M);
  const ClassifiedRegion &R = C.regions(0)[0];
  EXPECT_EQ(R.Kind, RegionKind::Writing);
  // The putRef publishes to an external base — a plain heap write — and
  // is the first blocker; the aliased write after it carries the
  // escape-specific code.
  EXPECT_EQ(R.primary().Code, DiagCode::HeapWrite);
  bool SawEscapeDiag = false;
  for (const Diagnostic &D : R.Diags)
    if (D.Code == DiagCode::EscapingFreshWrite) {
      SawEscapeDiag = true;
      EXPECT_EQ(D.Pc, 9u);
      EXPECT_EQ(D.AllocPc, 2u);
      std::string Msg = renderDiagnostic(M, D);
      EXPECT_NE(Msg.find("write at pc 9"), std::string::npos);
      EXPECT_NE(Msg.find("escaping object from pc 2"), std::string::npos);
      EXPECT_NE(Msg.find("@SoleroReadOnly"), std::string::npos);
    }
  EXPECT_TRUE(SawEscapeDiag);
  EXPECT_FALSE(C.writeIsBenign(0, 9));
}

TEST_F(EscapeClassifier, FreshArrayFillIsReadOnly) {
  // synchronized { a = new int[4]; a[0] = x; s = a[0]; } — astore into a
  // region-local array is as benign as a field write.
  MethodBuilder B("arrSnap", 1, 3);
  B.load(0).syncEnter();                       // pc 0, 1
  B.constant(4).newArray().store(1);           // pc 2, 3, 4
  B.load(1).constant(0).load(0).getField(0).astore(); // pc 5..9
  B.load(1).constant(0).aload().store(2);      // pc 10..13
  B.syncExit();
  B.load(2).ret();
  Module M = moduleOf(B.take());
  ClassifiedModule C = classifyModule(M);
  EXPECT_EQ(C.regions(0)[0].Kind, RegionKind::ReadOnly);
  EXPECT_TRUE(C.writeIsBenign(0, 9));
}

TEST_F(EscapeClassifier, SnapshotExecutesElidedOnBothEngines) {
  // End-to-end: the reclassified snapshot region actually runs down the
  // Figure 7 elided path, and both engines agree on results and elision
  // statistics.
  for (DispatchMode Mode : {DispatchMode::Threaded, DispatchMode::Reference}) {
    Interpreter::Options Opts;
    Opts.Mode = Mode;
    Interpreter I(ctx(), moduleOf(buildSnapshot()), Opts);
    EXPECT_EQ(I.classification().regions(0)[0].Kind, RegionKind::ReadOnly);
    GuestObject *Obj = I.allocateObject();
    Obj->F[0].write(40);
    Obj->F[1].write(1);
    ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
    for (int N = 0; N < 10; ++N)
      EXPECT_EQ(I.invoke("snapshot", {Value::ofRef(Obj)}).asInt(), 42);
    ProtocolCounters After = ThreadRegistry::instance().totalCounters();
    EXPECT_EQ(After.ReadOnlyEntries - Before.ReadOnlyEntries, 10u);
    EXPECT_EQ(After.ElisionSuccesses - Before.ElisionSuccesses, 10u);
    // The holder never reaches shared state: the guest object is intact.
    EXPECT_EQ(Obj->F[0].read(), 40);
    EXPECT_EQ(Obj->F[1].read(), 1);
    EXPECT_EQ(Obj->R[0].read(), nullptr);
  }
}

TEST_F(EscapeClassifier, AblationOptionDisablesBenignWrites) {
  // With EscapeAnalysis off the same program takes the conventional lock
  // and still computes the same answer.
  Interpreter::Options Opts;
  Opts.Classifier.EscapeAnalysis = false;
  Interpreter I(ctx(), moduleOf(buildSnapshot()), Opts);
  EXPECT_EQ(I.classification().regions(0)[0].Kind, RegionKind::Writing);
  GuestObject *Obj = I.allocateObject();
  Obj->F[0].write(40);
  Obj->F[1].write(1);
  EXPECT_EQ(I.invoke("snapshot", {Value::ofRef(Obj)}).asInt(), 42);
}
