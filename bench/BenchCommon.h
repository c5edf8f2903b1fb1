//===- bench/BenchCommon.h - Shared bench-binary plumbing -------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common setup for the per-figure bench binaries: flag parsing, harness
/// options, the runtime context, and output helpers. Every binary accepts:
///
///   --window-ms=N   measured window per trial        (default 150)
///   --trials=N      best-of trials                   (default 2)
///   --threads=L     comma list of thread counts      (figure-specific)
///   --quick         CI smoke mode (tiny windows)
///   --seed=N        workload RNG seed
///   --json=PATH     also write the run's results as machine-readable JSON
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_BENCH_BENCHCOMMON_H
#define SOLERO_BENCH_BENCHCOMMON_H

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/CliParser.h"
#include "support/NumaTopology.h"
#include "support/TablePrinter.h"
#include "workloads/Harness.h"
#include "workloads/LockPolicies.h"

namespace solero {

/// Accumulates one row per (variant, protocol, threads) cell and writes the
/// whole run as a JSON document, so figure runs leave a machine-readable
/// perf trajectory next to the human tables:
///
///   {"figure": "fig12", "rows": [
///     {"variant": "a", "protocol": "RWLock", "threads": 2,
///      "ops_per_sec": ..., "rmw_per_op": ..., "stores_per_op": ...,
///      "failure_ratio": ...}, ...]}
///
/// The schema is checked by the CI bench smoke job
/// (bench/RunBenchJsonSmoke.cmake).
class JsonReport {
public:
  /// One extra numeric column appended to a row (the KV service rows carry
  /// p50_us/p99_us/... beyond the fixed figure schema).
  using Extra = std::pair<std::string, double>;

  explicit JsonReport(std::string Figure) : Figure(std::move(Figure)) {}

  void add(const std::string &Variant, const std::string &Protocol,
           int Threads, const BenchResult &R,
           std::vector<Extra> Extras = {}) {
    Row Entry;
    Entry.Variant = Variant;
    Entry.Protocol = Protocol;
    Entry.Threads = Threads;
    Entry.OpsPerSec = R.OpsPerSec;
    Entry.RmwPerOp = R.rmwPerOp();
    Entry.StoresPerOp = R.storesPerOp();
    Entry.FailureRatio = R.failureRatio();
    Entry.Extras = std::move(Extras);
    Rows.push_back(std::move(Entry));
  }

  /// Writes the document; no-op when \p Path is empty. Returns false (and
  /// warns on stderr) when the file cannot be written.
  bool write(const std::string &Path) const {
    if (Path.empty())
      return true;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write --json file %s\n",
                   Path.c_str());
      return false;
    }
    std::fprintf(F, "{\n  \"figure\": \"%s\",\n  \"rows\": [",
                 escaped(Figure).c_str());
    for (std::size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(F,
                   "%s\n    {\"variant\": \"%s\", \"protocol\": \"%s\", "
                   "\"threads\": %d, \"ops_per_sec\": %.6g, "
                   "\"rmw_per_op\": %.6g, \"stores_per_op\": %.6g, "
                   "\"failure_ratio\": %.6g",
                   I ? "," : "", escaped(R.Variant).c_str(),
                   escaped(R.Protocol).c_str(), R.Threads,
                   finiteOrZero(R.OpsPerSec), finiteOrZero(R.RmwPerOp),
                   finiteOrZero(R.StoresPerOp),
                   finiteOrZero(R.FailureRatio));
      for (const Extra &E : R.Extras)
        std::fprintf(F, ", \"%s\": %.6g", escaped(E.first).c_str(),
                     finiteOrZero(E.second));
      std::fprintf(F, "}");
    }
    std::fprintf(F, "\n  ]\n}\n");
    std::fclose(F);
    return true;
  }

private:
  struct Row {
    std::string Variant;
    std::string Protocol;
    int Threads = 0;
    double OpsPerSec = 0;
    double RmwPerOp = 0;
    double StoresPerOp = 0;
    double FailureRatio = 0;
    std::vector<Extra> Extras;
  };

  /// JSON has no representation for NaN/Infinity and %.6g would print
  /// "nan"/"inf", corrupting the document (a zero-attempt variant or
  /// zero-elapsed window produces exactly those). Zero is the schema's
  /// "no signal" value.
  static double finiteOrZero(double V) { return std::isfinite(V) ? V : 0.0; }

  static std::string escaped(const std::string &S) {
    std::string Out;
    Out.reserve(S.size());
    for (char C : S) {
      unsigned char U = static_cast<unsigned char>(C);
      if (C == '"' || C == '\\') {
        Out.push_back('\\');
        Out.push_back(C);
      } else if (U < 0x20) {
        // Control characters are invalid raw inside a JSON string; a
        // CLI-supplied label must round-trip, not silently shrink.
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04X", U);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
    return Out;
  }

  std::string Figure;
  std::vector<Row> Rows;
};

/// Everything a figure binary needs.
struct BenchEnv {
  BenchEnv(int Argc, char **Argv) : Args(Argc, Argv) {
    Quick = Args.getBool("quick", false);
    Opts.Window = std::chrono::milliseconds(
        Args.getInt("window-ms", Quick ? 30 : 150));
    Opts.Warmup = std::chrono::milliseconds(Quick ? 5 : 30);
    Opts.Trials = static_cast<int>(Args.getInt("trials", Quick ? 1 : 2));
    Seed = static_cast<uint64_t>(Args.getInt("seed", 0x5eed));
    JsonPath = Args.getString("json", "");
    Ctx = std::make_unique<RuntimeContext>();
  }

  /// Thread counts to sweep (paper: 1..16 on the 16-way Power6).
  std::vector<int> threadList(std::vector<int> Default) {
    if (Quick && !Args.has("threads"))
      return {1, 2};
    return Args.getIntList("threads", std::move(Default));
  }

  CliParser Args;
  HarnessOptions Opts;
  std::unique_ptr<RuntimeContext> Ctx;
  uint64_t Seed = 0;
  bool Quick = false;
  /// Destination of the machine-readable run report; empty = off.
  std::string JsonPath;
};

/// Prints the standard figure banner.
inline void printBanner(const char *Id, const char *Title,
                        const char *PaperClaim) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", Id, Title);
  std::printf("Paper: Nakaike & Michael, \"Lock Elision for Read-Only "
              "Critical Sections in Java\",\n       PLDI 2010.\n");
  std::printf("Paper result: %s\n", PaperClaim);
  std::printf("Note: this host has %u CPUs (paper used a 16-way Power6). "
              "The rmw/op and st/op\ncolumns are the deterministic "
              "coherence-traffic proxies (see EXPERIMENTS.md).\n",
              NumaTopology::cpuCount());
  std::printf("==============================================================="
              "=================\n");
}

/// Formats ns/op from a result.
inline std::string nsPerOp(const BenchResult &R) {
  return TablePrinter::num(R.Ops ? R.Seconds * 1e9 /
                                       static_cast<double>(R.Ops)
                                 : 0.0,
                           1);
}

} // namespace solero

#endif // SOLERO_BENCH_BENCHCOMMON_H
