//===- bench/analyze_module.cpp - Static elidability/race report ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The static-analysis front door: classify every synchronized region of
/// the named guest programs (bench/GuestPrograms.h), render the structured
/// elidability diagnostics, and run the guest race detector. The output is
/// fully deterministic — CI diffs it against analyze_module.expected, so
/// a classifier or detector behavior change shows up as a golden-file
/// diff, not a silent drift.
///
///   analyze_module [--module=config|snapshot|racy]   (default: all)
///
//===----------------------------------------------------------------------===//

#include "GuestPrograms.h"

#include "jit/ReadOnlyClassifier.h"
#include "jit/analysis/RaceDetector.h"

#include "support/CliParser.h"

#include <cstdio>
#include <cstring>

using namespace solero;
using namespace solero::jit;

namespace {

std::size_t report(const char *Name, const Module &M) {
  ClassifiedModule C = classifyModule(M);
  std::printf("== module %s ==\n", Name);
  unsigned Total = 0, Elidable = 0, BenignWrites = 0;
  for (uint32_t Id = 0; Id < M.methodCount(); ++Id) {
    const Method &Fn = M.method(Id);
    std::printf("method %s (%s)\n", Fn.Name.c_str(),
                C.methodIsPure(Id) ? "pure" : "impure");
    for (const ClassifiedRegion &R : C.regions(Id)) {
      ++Total;
      if (R.Kind != RegionKind::Writing)
        ++Elidable;
      std::printf("  region [pc %u, pc %u): %s — %s\n", R.Region.EnterPc,
                  R.Region.ExitPc, regionKindName(R.Kind),
                  regionReason(M, R).c_str());
      for (std::size_t I = 1; I < R.Diags.size(); ++I) {
        if (R.Diags[I].Code == DiagCode::FreshWrite)
          ++BenignWrites;
        std::printf("    ; %s\n", renderDiagnostic(M, R.Diags[I]).c_str());
      }
    }
  }
  std::vector<RaceWarning> Races = detectRaces(M);
  for (const RaceWarning &W : Races)
    std::printf("race: %s\n", renderRaceWarning(M, W).c_str());
  std::printf("summary: %u regions, %u elidable, %u benign writes, %zu race "
              "warnings\n\n",
              Total, Elidable, BenignWrites, Races.size());
  return Races.size();
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Args(Argc, Argv, {"module"});
  std::string Which = Args.getString("module", "all");
  auto Want = [&](const char *Name) {
    return Which == "all" || Which == Name;
  };
  std::printf("solero analyze_module — Section 3.2 elidability and guest "
              "race report\n\n");
  std::size_t Races = 0;
  if (Want("config"))
    Races += report("config", bench::buildConfigGuest());
  if (Want("snapshot"))
    Races += report("snapshot", bench::buildSnapshotGuest());
  if (Want("racy"))
    Races += report("racy", bench::buildRacyCounterGuest());
  // Race findings fail the build: CI runs the clean guests expecting 0 and
  // the seeded racy guest expecting 1, so the detector regressing in
  // either direction is caught by exit code alone.
  return Races != 0 ? 1 : 0;
}
