//===- tests/SupportTest.cpp - Support library unit tests -----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/Backoff.h"
#include "support/Barrier.h"
#include "support/CliParser.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SplitMix64KnownVector) {
  // Reference values for seed 1234567 from the published SplitMix64 code.
  SplitMix64 R(1234567);
  EXPECT_EQ(R.next(), 6457827717110365317ULL);
  EXPECT_EQ(R.next(), 3203168211198807973ULL);
}

TEST(Rng, XoshiroBoundedStaysInRange) {
  Xoshiro256StarStar R(7);
  for (int I = 0; I < 10000; ++I) {
    EXPECT_LT(R.nextBounded(17), 17u);
    EXPECT_LT(R.nextBounded(1), 1u);
  }
}

TEST(Rng, XoshiroPercentIsRoughlyCalibrated) {
  Xoshiro256StarStar R(99);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Hits += R.nextPercent(5) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.05, 0.01);
}

TEST(Rng, XoshiroDoubleInUnitInterval) {
  Xoshiro256StarStar R(3);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Stats, RunningStatsBasics) {
  RunningStats S;
  for (double X : {1.0, 2.0, 3.0, 4.0})
    S.add(X);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.5);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 4.0);
  EXPECT_NEAR(S.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> V = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.25), 20.0);
}

TEST(Stats, QuantileSingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
}

TEST(Backoff, ExpBackoffDoublesAndSaturates) {
  ExpBackoff B(/*MinSpins=*/4, /*MaxSpins=*/32);
  EXPECT_EQ(B.currentSpins(), 4);
  B.nextSpins();
  EXPECT_EQ(B.currentSpins(), 8);
  B.nextSpins();
  EXPECT_EQ(B.currentSpins(), 16);
  B.nextSpins();
  EXPECT_EQ(B.currentSpins(), 32);
  B.nextSpins(); // clamped at MaxSpins, never overshoots
  EXPECT_EQ(B.currentSpins(), 32);
}

TEST(Backoff, ExpBackoffResetReturnsToMin) {
  ExpBackoff B(8, 1024);
  for (int I = 0; I < 20; ++I)
    B.nextSpins();
  EXPECT_EQ(B.currentSpins(), 1024);
  B.reset();
  EXPECT_EQ(B.currentSpins(), 8);
}

TEST(Backoff, ExpBackoffSanitizesDegenerateBounds) {
  ExpBackoff Zero(0, 0); // both clamp to at least one spin
  EXPECT_EQ(Zero.currentSpins(), 1);
  EXPECT_EQ(Zero.nextSpins(), 1);
  EXPECT_EQ(Zero.currentSpins(), 1);

  ExpBackoff Inverted(64, 2); // Max below Min clamps to Min
  EXPECT_EQ(Inverted.currentSpins(), 64);
  Inverted.nextSpins();
  EXPECT_EQ(Inverted.currentSpins(), 64);
}

TEST(Stats, SafeRatioHandlesZeroDenominator) {
  EXPECT_DOUBLE_EQ(safeRatio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(safeRatio(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(safeRatio(7, 0), 0.0);
}

TEST(CliParser, ParsesAllForms) {
  const char *Argv[] = {"prog",        "--threads=8",  "--name=hashmap",
                        "--verbose",   "--mask=0x1f",  "--ratio=0.5",
                        "--list=1,2,4"};
  CliParser P(7, const_cast<char **>(Argv),
              {"threads", "name", "verbose", "quiet", "mask", "ratio", "list"});
  EXPECT_EQ(P.getInt("threads", 1), 8);
  EXPECT_EQ(P.getString("name", ""), "hashmap");
  EXPECT_TRUE(P.getBool("verbose", false));
  EXPECT_FALSE(P.getBool("quiet", false));
  EXPECT_DOUBLE_EQ(P.getDouble("ratio", 0.0), 0.5);
  std::vector<int> L = P.getIntList("list", {});
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[2], 4);
  EXPECT_EQ(P.getInt("mask", 0), 0x1f);
}

// A value that does not parse in full must not silently become 0 (and run
// an empty experiment): the parser names the flag and exits 2.
TEST(CliParser, MalformedValueExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Argv[] = {"prog", "--iters=abc", "--ratio=0.5x", "--seeds=1,x"};
  CliParser P(4, const_cast<char **>(Argv), {"iters", "ratio", "seeds"});
  EXPECT_EXIT((void)P.getInt("iters", 1), ::testing::ExitedWithCode(2),
              "--iters=abc");
  EXPECT_EXIT((void)P.getDouble("ratio", 0.0), ::testing::ExitedWithCode(2),
              "--ratio=0.5x");
  EXPECT_EXIT((void)P.getIntList("seeds", {}), ::testing::ExitedWithCode(2),
              "--seeds=1,x");
  const char *Big[] = {"prog", "--iters=99999999999999999999"};
  CliParser BigP(2, const_cast<char **>(Big), {"iters"});
  EXPECT_EXIT((void)BigP.getInt("iters", 1), ::testing::ExitedWithCode(2),
              "--iters=9");
}

// `--seeds 1,2` (space instead of `=`) must not run with the default seeds
// and an ignored "1,2".
TEST(CliParser, PositionalArgumentExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Argv[] = {"prog", "--seeds", "1,2"};
  EXPECT_EXIT(CliParser(3, const_cast<char **>(Argv), {"seeds"}),
              ::testing::ExitedWithCode(2), "stray argument '1,2'");
}

// A flag the program does not read (a typo, `--help`, a flag of another
// bench) must not run the default experiment: usage and exit 2.
TEST(CliParser, UnknownFlagExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Argv[] = {"prog", "--threads=2", "--writes=0"};
  EXPECT_EXIT(CliParser(3, const_cast<char **>(Argv), {"threads", "quick"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --writes\nusage: prog \\[--quick\\] "
              "\\[--threads\\]");
  const char *Help[] = {"prog", "--help"};
  EXPECT_EXIT(CliParser(2, const_cast<char **>(Help), {"threads"}),
              ::testing::ExitedWithCode(2), "unknown flag --help");
}

// Reading a flag the program never declared is a bug in the program, not
// bad input: it aborts instead of quietly returning the default.
TEST(CliParser, UndeclaredQueryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Argv[] = {"prog"};
  CliParser P(1, const_cast<char **>(Argv), {"threads"});
  EXPECT_DEATH((void)P.getInt("rounds", 3), "--rounds is read but not");
}

TEST(CliParser, DefaultsWhenAbsent) {
  const char *Argv[] = {"prog"};
  CliParser P(1, const_cast<char **>(Argv), {"threads"});
  EXPECT_EQ(P.getInt("threads", 4), 4);
  std::vector<int> L = P.getIntList("threads", {1, 2});
  EXPECT_EQ(L.size(), 2u);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::percent(0.1234, 1), "12.3%");
}

TEST(Barrier, ReleasesAllParticipants) {
  constexpr int N = 4;
  SpinBarrier B(N);
  std::atomic<int> Phase0{0}, Phase1{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&] {
      Phase0.fetch_add(1);
      B.arriveAndWait();
      // Everyone must have finished phase 0 before any thread passes.
      EXPECT_EQ(Phase0.load(), N);
      Phase1.fetch_add(1);
      B.arriveAndWait(); // reusable
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Phase1.load(), N);
}
