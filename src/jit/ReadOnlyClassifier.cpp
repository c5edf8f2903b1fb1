//===- jit/ReadOnlyClassifier.cpp - Section 3.2 analysis ------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "jit/ReadOnlyClassifier.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "jit/analysis/EscapeAnalysis.h"

using namespace solero;
using namespace solero::jit;

const char *jit::regionKindName(RegionKind K) {
  switch (K) {
  case RegionKind::ReadOnly:
    return "read-only";
  case RegionKind::ReadMostly:
    return "read-mostly";
  case RegionKind::Writing:
    return "writing";
  }
  SOLERO_UNREACHABLE("bad RegionKind");
}

const ClassifiedRegion &ClassifiedModule::regionAt(uint32_t MethodId,
                                                   uint32_t EnterPc) const {
  for (const ClassifiedRegion &R : regions(MethodId))
    if (R.Region.EnterPc == EnterPc)
      return R;
  SOLERO_UNREACHABLE("no classified region at this pc");
}

std::string jit::regionReason(const Module &M, const ClassifiedRegion &R) {
  std::string S = renderDiagnostic(M, R.primary());
  if (R.primary().Code == DiagCode::RareWrites) {
    // Show which blocker the profile softened.
    for (const Diagnostic &D : R.Diags)
      if (diagBlocks(D.Code))
        return S + " (" + renderDiagnostic(M, D) + ")";
  }
  return S;
}

namespace {

/// Inter-procedural purity: a method is pure if no instruction writes heap
/// or static state, performs a side effect, enters a monitor, or invokes
/// an impure (or recursive) method. Throwing and allocation are allowed.
class PurityAnalysis {
public:
  explicit PurityAnalysis(const Module &M) : M(M) {
    States.resize(M.methodCount(), ClassifiedModule::PurityState::Unknown);
  }

  bool isPure(uint32_t Id) {
    using PS = ClassifiedModule::PurityState;
    switch (States[Id]) {
    case PS::Pure:
      return true;
    case PS::Impure:
      return false;
    case PS::InProgress:
      // Recursion: be conservative, as a JIT without a fixpoint engine
      // would be.
      return false;
    case PS::Unknown:
      break;
    }
    States[Id] = PS::InProgress;
    bool Pure = true;
    for (const Instruction &I : M.method(Id).Code) {
      if (isWriteOrSideEffect(I.Op) || I.Op == Opcode::SyncEnter) {
        Pure = false;
        break;
      }
      if (I.Op == Opcode::Invoke &&
          !isPure(static_cast<uint32_t>(I.A))) {
        Pure = false;
        break;
      }
    }
    States[Id] = Pure ? PS::Pure : PS::Impure;
    return Pure;
  }

  std::vector<ClassifiedModule::PurityState> takeStates() {
    return std::move(States);
  }

private:
  const Module &M;
  std::vector<ClassifiedModule::PurityState> States;
};

/// The write/effect diagnostic for instruction \p I at \p Pc, assuming it
/// was not proven benign.
Diagnostic effectDiag(const Instruction &I, uint32_t Pc) {
  Diagnostic D;
  D.Pc = Pc;
  D.Op = I.Op;
  D.Operand = I.A;
  switch (I.Op) {
  case Opcode::PutField:
  case Opcode::PutRef:
    D.Code = DiagCode::HeapWrite;
    break;
  case Opcode::AStore:
    D.Code = DiagCode::ArrayWrite;
    break;
  case Opcode::PutStatic:
    D.Code = DiagCode::StaticWrite;
    break;
  default: // Print, NativeCall, monitor operations
    D.Code = DiagCode::SideEffect;
    break;
  }
  return D;
}

/// Profile sums saturate instead of wrapping: a wrapped write count would
/// understate a region's writes and make it look read-mostly.
uint64_t addSaturating(uint64_t A, uint64_t B) {
  return A > UINT64_MAX - B ? UINT64_MAX : A + B;
}

} // namespace

ClassifiedModule jit::classifyModule(const Module &M, const Profile *P,
                                     const ClassifierOptions &Opts) {
  ClassifiedModule Out;
  Out.PerMethod.resize(M.methodCount());
  PurityAnalysis Purity(M);
  // Resolve purity for everything first (order-independent).
  for (uint32_t Id = 0; Id < M.methodCount(); ++Id)
    (void)Purity.isPure(Id);

  for (uint32_t Id = 0; Id < M.methodCount(); ++Id) {
    VerifiedMethod V = verifyMethod(M, Id);
    SOLERO_CHECK(V.Ok, "classifyModule requires a verified module");
    const Method &Fn = M.method(Id);
    std::vector<BitVec> LiveIn = computeLiveIn(M, Id);
    std::optional<EscapeAnalysis> Esc;
    if (Opts.EscapeAnalysis)
      Esc.emplace(M, Id);
    Out.BenignWrites.emplace_back(Fn.Code.size());

    for (const SyncRegion &R : V.Regions) {
      ClassifiedRegion C;
      C.Region = R;
      // The annotations override the analysis (Section 3.2 / Section 5).
      if (Fn.AnnotatedReadOnly) {
        C.Kind = RegionKind::ReadOnly;
        C.Diags.push_back({DiagCode::AnnotatedReadOnly});
        Out.PerMethod[Id].push_back(std::move(C));
        continue;
      }
      if (Fn.AnnotatedReadMostly) {
        C.Kind = RegionKind::ReadMostly;
        C.Diags.push_back({DiagCode::AnnotatedReadMostly});
        Out.PerMethod[Id].push_back(std::move(C));
        continue;
      }

      std::vector<Diagnostic> Blockers; // pc order
      std::vector<Diagnostic> Notes;    // FreshWrite, pc order
      uint64_t WriteExecutions = 0;
      bool NestedRegionSkip = false;
      // Live-local stores block elision even in read-mostly form: the
      // engine may re-execute the body, which would see the clobbered
      // local. Heap writes are fine to re-execute because the upgrade (or
      // fallback) happens before the first one runs.
      bool HardBlock = false;
      uint32_t NestedDepth = 0;
      for (uint32_t Pc = R.EnterPc + 1; Pc < R.ExitPc; ++Pc) {
        const Instruction &I = Fn.Code[Pc];
        // Nested regions are classified on their own; for the enclosing
        // region they count as a side effect (monitor operations write
        // lock state).
        if (I.Op == Opcode::SyncEnter) {
          ++NestedDepth;
          Blockers.push_back({DiagCode::NestedSync, Pc, I.Op, I.A});
          NestedRegionSkip = true;
          continue;
        }
        if (I.Op == Opcode::SyncExit) {
          --NestedDepth;
          continue;
        }
        if (NestedDepth > 0)
          continue; // effects inside nested regions belong to them
        if (isWriteOrSideEffect(I.Op)) {
          // Escape analysis: a write to an object allocated inside this
          // region that has not escaped touches thread-local memory only
          // — allow it, and tell the engines to skip the upgrade hook.
          if (Esc && (I.Op == Opcode::PutField || I.Op == Opcode::PutRef ||
                      I.Op == Opcode::AStore)) {
            if (Esc->writeIsRegionLocal(Pc, R)) {
              Notes.push_back({DiagCode::FreshWrite, Pc, I.Op, I.A,
                               Esc->writeBaseAllocPc(Pc)});
              Out.BenignWrites[Id].set(Pc);
              continue;
            }
            if (Esc->writeBaseEscaped(Pc)) {
              Blockers.push_back({DiagCode::EscapingFreshWrite, Pc, I.Op,
                                  I.A, Esc->writeBaseAllocPc(Pc)});
              if (P)
                WriteExecutions =
                    addSaturating(WriteExecutions, P->count(Id, Pc));
              continue;
            }
          }
          Blockers.push_back(effectDiag(I, Pc));
          if (P)
            WriteExecutions = addSaturating(WriteExecutions, P->count(Id, Pc));
          continue;
        }
        if (I.Op == Opcode::Store &&
            LiveIn[R.EnterPc].test(static_cast<std::size_t>(I.A))) {
          Blockers.push_back({DiagCode::LiveLocalStore, Pc, I.Op, I.A});
          HardBlock = true;
          continue;
        }
        if (I.Op == Opcode::Invoke &&
            !Purity.isPure(static_cast<uint32_t>(I.A))) {
          Blockers.push_back({DiagCode::ImpureInvoke, Pc, I.Op, I.A});
          if (P)
            WriteExecutions = addSaturating(WriteExecutions, P->count(Id, Pc));
          continue;
        }
      }

      if (Blockers.empty()) {
        C.Kind = RegionKind::ReadOnly;
        C.Diags.push_back({DiagCode::NoWritesOrSideEffects});
      } else if (P && !NestedRegionSkip && !HardBlock &&
                 P->count(Id, R.EnterPc) > 0 &&
                 WriteExecutions <= (P->count(Id, R.EnterPc) - 1) / 10) {
        // Section 5 heuristic: writes that execute on fewer than 10% of
        // region entries make the region read-mostly. The test is
        // WriteExecutions * 10 < entries, rearranged so that counts near
        // UINT64_MAX (a profile can come from a warm image) cannot wrap.
        C.Kind = RegionKind::ReadMostly;
        C.Diags.push_back({DiagCode::RareWrites});
      } else {
        C.Kind = RegionKind::Writing;
        C.Diags.push_back(Blockers.front());
        Blockers.erase(Blockers.begin());
      }
      C.Diags.insert(C.Diags.end(), Blockers.begin(), Blockers.end());
      C.Diags.insert(C.Diags.end(), Notes.begin(), Notes.end());
      Out.PerMethod[Id].push_back(std::move(C));
    }
  }
  Out.Purity = Purity.takeStates();
  return Out;
}
