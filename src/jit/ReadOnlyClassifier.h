//===- jit/ReadOnlyClassifier.h - Section 3.2 analysis ----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's JIT analysis (Section 3.2): identify synchronized blocks as
/// read-only by looking for writes and side effects. A region is NOT
/// read-only if it contains
///
///  - writes to instance variables, reference fields, or statics — except
///    writes the escape analysis proves target an object allocated inside
///    the region that has not escaped (filling in a fresh result holder is
///    as harmless as the allocation itself, which the paper permits);
///  - writes to local variables that are live at the beginning of the
///    critical section (computed by backward liveness analysis);
///  - invocations of methods, unless the callee is transitively provably
///    free of writes and side effects (inter-procedural purity), other
///    than throwing runtime exceptions;
///  - observable side effects (Print, NativeCall) or nested synchronized
///    blocks.
///
/// Throwing runtime exceptions and object allocation are allowed, as in
/// the paper. A method-level @SoleroReadOnly annotation overrides the
/// analysis; the Section 5 extension classifies regions whose writes are
/// dynamically rare (by profile) as read-mostly.
///
/// Each verdict carries structured diagnostics (jit/analysis/Diagnostics.h)
/// instead of a free-form string: every blocker and every allowed benign
/// write is recorded with pc/operand provenance, and regionReason()
/// renders the primary one for humans.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_JIT_READONLYCLASSIFIER_H
#define SOLERO_JIT_READONLYCLASSIFIER_H

#include <string>
#include <vector>

#include "jit/Program.h"
#include "jit/Verifier.h"
#include "jit/analysis/BitVec.h"
#include "jit/analysis/Diagnostics.h"
#include "jit/analysis/Liveness.h"

namespace solero {
namespace jit {

/// How the interpreter should lock a synchronized region.
enum class RegionKind {
  ReadOnly,   ///< elide (Figure 7)
  ReadMostly, ///< elide with mid-section upgrade (Figure 17)
  Writing,    ///< conventional acquisition (Figure 6)
};

const char *regionKindName(RegionKind K);

/// Per-instruction execution counts from a profiling run, used for the
/// Section 5 read-mostly heuristic.
struct Profile {
  /// Counts[MethodId][Pc].
  std::vector<std::vector<uint64_t>> Counts;

  uint64_t count(uint32_t MethodId, uint32_t Pc) const {
    if (MethodId >= Counts.size() || Pc >= Counts[MethodId].size())
      return 0;
    return Counts[MethodId][Pc];
  }
};

/// Static analysis knobs (ablation and tests; the defaults are what the
/// engine uses).
struct ClassifierOptions {
  /// Allow writes to provably region-local allocations (escape analysis).
  /// Off reproduces the plain Section 3.2 rule set.
  bool EscapeAnalysis = true;
};

/// One classified synchronized region.
struct ClassifiedRegion {
  SyncRegion Region;
  RegionKind Kind;
  /// Structured provenance: Diags[0] explains the verdict, the rest are
  /// the remaining blockers and FreshWrite notes in pc order.
  std::vector<Diagnostic> Diags;

  const Diagnostic &primary() const {
    SOLERO_CHECK(!Diags.empty(), "region without diagnostics");
    return Diags.front();
  }
};

/// Renders the region's primary diagnostic (plus the softened blocker for
/// profile-driven read-mostly verdicts) — the human-readable "why".
std::string regionReason(const Module &M, const ClassifiedRegion &R);

/// Analysis results for a whole module.
class ClassifiedModule {
public:
  /// Inter-procedural purity lattice (public for the analysis helper).
  enum class PurityState : uint8_t { Unknown, InProgress, Pure, Impure };

  /// Regions of \p MethodId, ordered by EnterPc (as in VerifiedMethod).
  const std::vector<ClassifiedRegion> &regions(uint32_t MethodId) const {
    SOLERO_CHECK(MethodId < PerMethod.size(), "method id out of range");
    return PerMethod[MethodId];
  }

  /// The classified region whose SyncEnter is at \p EnterPc.
  const ClassifiedRegion &regionAt(uint32_t MethodId, uint32_t EnterPc) const;

  /// True if the analysis proved the whole method free of writes and side
  /// effects (used for inter-procedural invoke checks and by tests).
  bool methodIsPure(uint32_t MethodId) const {
    return Purity[MethodId] == PurityState::Pure;
  }

  /// True if the write at \p Pc provably targets a region-local
  /// allocation: the engines skip the read-mostly upgrade hook for it.
  bool writeIsBenign(uint32_t MethodId, uint32_t Pc) const {
    if (MethodId >= BenignWrites.size() ||
        Pc >= BenignWrites[MethodId].size())
      return false;
    return BenignWrites[MethodId].test(Pc);
  }

private:
  friend ClassifiedModule classifyModule(const Module &M, const Profile *P,
                                         const ClassifierOptions &Opts);
  std::vector<std::vector<ClassifiedRegion>> PerMethod;
  std::vector<PurityState> Purity;
  std::vector<BitVec> BenignWrites; ///< per method, bit per pc
};

/// Classifies every synchronized region in \p M. \p P, when provided,
/// enables the profile-guided read-mostly classification: a region with
/// writes or side effects whose dynamic write frequency is below 10% of
/// the region's entry count becomes ReadMostly (benign writes do not
/// count against the threshold). The module must verify.
ClassifiedModule classifyModule(const Module &M, const Profile *P = nullptr,
                                const ClassifierOptions &Opts = {});

} // namespace jit
} // namespace solero

#endif // SOLERO_JIT_READONLYCLASSIFIER_H
