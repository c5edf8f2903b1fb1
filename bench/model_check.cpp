//===- bench/model_check.cpp - Protocol model checker CLI -----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Exhaustively explores the lock-word protocol models (src/verify) under
/// SC and TSO and reports a deterministic one-line summary per run plus,
/// on a violation, the BFS-minimized counterexample trace. No timing in
/// the output — two invocations with the same flags are byte-identical,
/// which CI exploits with a `cmp` determinism check.
///
///   model_check --all                        # every shipped model, SC+TSO
///   model_check --model=solero --mem=tso
///   model_check --model=solero --variant=blind-store-release   # exits 1
///   model_check --model=bravo --variant=no-revocation-fence --mem=tso
///   model_check --model=dekker --variant=no-fence --mem=tso
///
/// Flags: --mem=sc|tso|both (default both), --variant=shipped|... (model
/// specific, see src/verify/Models.h), --por=0 disables the sleep-set
/// reduction, --depth-bound=N / --max-transitions=N override the valves,
/// --quiet suppresses traces.
///
/// Exit code: 0 when every run passes, 1 when any run finds a violation,
/// 2 when any run is incomplete (valve hit) — CI treats the seeded-bug
/// variants' exit 1 as the expected outcome.
///
//===----------------------------------------------------------------------===//

#include "support/CliParser.h"
#include "verify/Checker.h"
#include "verify/Models.h"
#include "verify/Trace.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace solero;
using namespace solero::verify;

namespace {

std::unique_ptr<ProtocolModel> buildModel(const std::string &Name,
                                          const std::string &Variant) {
  if (Name == "solero") {
    SoleroModelConfig C;
    if (Variant == "blind-store-release")
      C.BlindStoreRelease = true;
    else if (Variant != "shipped")
      return nullptr;
    return makeSoleroModel(C);
  }
  if (Name == "tasuki") {
    TasukiModelConfig C;
    if (Variant == "blind-store-release")
      C.BlindStoreRelease = true;
    else if (Variant != "shipped")
      return nullptr;
    return makeTasukiModel(C);
  }
  if (Name == "bravo") {
    BravoModelConfig C;
    if (Variant == "no-revocation-fence")
      C.NoRevocationFence = true;
    else if (Variant != "shipped")
      return nullptr;
    return makeBravoModel(C);
  }
  if (Name == "dekker") {
    DekkerModelConfig C;
    if (Variant == "no-fence")
      C.Fences = false;
    else if (Variant != "shipped")
      return nullptr;
    return makeDekkerModel(C);
  }
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Args(Argc, Argv,
                 {"all", "depth-bound", "max-transitions", "mem", "model",
                  "por", "quiet", "variant"});
  const bool All = Args.getBool("all", false);
  const std::string ModelName = Args.getString("model", All ? "" : "solero");
  const std::string Variant = Args.getString("variant", "shipped");
  const std::string Mem = Args.getString("mem", "both");
  const bool Quiet = Args.getBool("quiet", false);

  CheckConfig Base;
  Base.SleepSets = Args.getBool("por", true);
  Base.DepthBound = static_cast<uint32_t>(
      Args.getInt("depth-bound", Base.DepthBound));
  Base.MaxTransitions = static_cast<uint64_t>(
      Args.getInt("max-transitions", Base.MaxTransitions));

  std::vector<std::string> Models;
  if (All) {
    Models = {"solero", "tasuki", "bravo"};
  } else {
    Models = {ModelName};
  }
  std::vector<MemSemantics> Mems;
  if (Mem == "sc")
    Mems = {MemSemantics::SC};
  else if (Mem == "tso")
    Mems = {MemSemantics::TSO};
  else if (Mem == "both")
    Mems = {MemSemantics::SC, MemSemantics::TSO};
  else {
    std::fprintf(stderr, "model_check: unknown --mem=%s\n", Mem.c_str());
    return 3;
  }

  bool AnyViolation = false, AnyIncomplete = false;
  for (const std::string &Name : Models) {
    std::unique_ptr<ProtocolModel> M = buildModel(Name, Variant);
    if (!M) {
      std::fprintf(stderr, "model_check: unknown model/variant %s/%s\n",
                   Name.c_str(), Variant.c_str());
      return 3;
    }
    for (MemSemantics Sem : Mems) {
      CheckConfig C = Base;
      C.Mem = Sem;
      CheckResult R = checkModel(*M, C);
      std::printf("%s\n", renderSummary(*M, Variant.c_str(), C, R).c_str());
      if (R.V == Verdict::Violation) {
        AnyViolation = true;
        if (!Quiet)
          std::printf("%s", renderTrace(*M, C, R).c_str());
      } else if (R.V == Verdict::Incomplete) {
        AnyIncomplete = true;
      }
    }
  }
  if (AnyViolation)
    return 1;
  return AnyIncomplete ? 2 : 0;
}
