//===- tests/KvOracleTest.cpp - ShardedKv invariant oracle tests ----------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// stress/KvOracle.h must pass an honest run and must fire when the store
/// is changed behind its back: each tampering test breaks one invariant
/// the way a protocol bug would, and asserts that verify() names it.
///
//===----------------------------------------------------------------------===//

#include "stress/KvOracle.h"

#include "kv/ShardedKvStore.h"
#include "workloads/LockPolicies.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace solero;
using namespace solero::stress;

namespace {

using Store = kv::ShardedKvStore<SoleroPolicy>;

class KvOracleTest : public ::testing::Test {
protected:
  /// A few honest ops from two owners, so every invariant has something
  /// to check.
  void SetUp() override {
    EXPECT_TRUE(Oracle.bumpPair(0, 1));
    EXPECT_TRUE(Oracle.bumpPair(1, 2));
    EXPECT_TRUE(Oracle.bumpPair(1, 2));
    for (unsigned I = 0; I < 5; ++I)
      EXPECT_TRUE(Oracle.flipChurn(0, I));
    EXPECT_TRUE(Oracle.flipChurn(1, 3));
  }

  /// True when some line of \p Failures contains \p Needle.
  static bool reports(const std::vector<std::string> &Failures,
                      const std::string &Needle) {
    for (const std::string &F : Failures)
      if (F.find(Needle) != std::string::npos)
        return true;
    return false;
  }

  RuntimeContext Ctx;
  Store S{Ctx, kv::KvStoreConfig{2, 16}};
  KvOracle<Store> Oracle{S, /*Threads=*/2, /*ChurnKeysPerThread=*/8};
};

} // namespace

TEST_F(KvOracleTest, HonestRunVerifiesClean) {
  EXPECT_TRUE(Oracle.getOwnKey(0, 4));
  EXPECT_TRUE(Oracle.getOwnKey(0, 7));
  EXPECT_TRUE(Oracle.flipChurn(0, 4)); // removes it again
  EXPECT_TRUE(Oracle.getOwnKey(0, 4));
  for (unsigned Sh = 0; Sh < S.shardCount(); ++Sh)
    EXPECT_TRUE(S.readShard(Sh, [&](const kv::ShardTable &T, ReadGuard &) {
      return Oracle.pairHolds(T, Sh) && Oracle.scanHolds(T);
    }));
  std::vector<std::string> Failures = Oracle.verify(/*BaseLive=*/0);
  EXPECT_TRUE(Failures.empty()) << Failures.front();
}

TEST_F(KvOracleTest, ReportsPairOverwrittenOutsideBump) {
  // A write that keeps B == -A but bypasses bumpPair: the pair still looks
  // consistent to readers, but no longer matches the bump count.
  S.writeShard(1, [](kv::ShardTable &T) {
    T.put(KvOracle<Store>::pairKeyA(1), 7);
    T.put(KvOracle<Store>::pairKeyB(1), 0 - 7ull);
  });
  EXPECT_TRUE(reports(Oracle.verify(0), "shard 1: A=7 != bumps=2"));
}

TEST_F(KvOracleTest, ReportsTornPairInReadSectionAndAtTheEnd) {
  S.writeShard(0, [](kv::ShardTable &T) {
    T.put(KvOracle<Store>::pairKeyA(0), 5);
  });
  EXPECT_FALSE(S.readShard(0, [&](const kv::ShardTable &T, ReadGuard &) {
    return Oracle.pairHolds(T, 0);
  }));
  EXPECT_TRUE(reports(Oracle.verify(0), "shard 0: pair torn or missing"));
}

TEST_F(KvOracleTest, ReportsChurnKeyRemovedBehindItsOwner) {
  ASSERT_TRUE(S.remove(KvOracle<Store>::churnKey(0, 2)));
  EXPECT_FALSE(Oracle.getOwnKey(0, 2));
  std::vector<std::string> Failures = Oracle.verify(0);
  EXPECT_TRUE(
      reports(Failures, "churn key (thread 0 idx 2) != owner's bitmap"));
  EXPECT_TRUE(reports(Failures, "size conservation"));
  // The owner's next flip tries to remove a key that is already gone.
  EXPECT_FALSE(Oracle.flipChurn(0, 2));
}

TEST_F(KvOracleTest, ReportsTokenLeftClaimed) {
  // A writer that claimed the token and never left its section.
  ASSERT_TRUE(Oracle.claim(1, 9));
  EXPECT_TRUE(
      reports(Oracle.verify(0), "shard 1: exclusion token left claimed"));
  // The next writer finds the token taken: an inline exclusion verdict.
  EXPECT_FALSE(Oracle.bumpPair(1, 2));
}
