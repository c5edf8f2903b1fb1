//===- tests/ShardedKvStoreTest.cpp - Sharded KV store tests --------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// kv/ShardedKvStore.h across the whole lock-policy portfolio: point ops
/// and scan consistency are typed over every policy; the resize-under-
/// readers and tombstone-reuse regressions run under SOLERO, the policy
/// whose optimistic readers make them dangerous, and cell recycling at
/// remove() runs under both optimistic policies. The ShardTable tests pin
/// scan()'s count and sum at capacities below, at and above one scan block,
/// and its speculation check points.
///
//===----------------------------------------------------------------------===//

#include "kv/ShardedKvStore.h"
#include "workloads/LockPolicies.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::kv;

namespace {

template <typename Policy> class ShardedKvStoreTest : public ::testing::Test {
protected:
  RuntimeContext Ctx;
};

using AllPolicies = ::testing::Types<TasukiPolicy, RwPolicy, BravoRwPolicy,
                                     SoleroPolicy, SeqLockPolicy>;

} // namespace

TYPED_TEST_SUITE(ShardedKvStoreTest, AllPolicies);

TYPED_TEST(ShardedKvStoreTest, PointOperationsRoundTrip) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{4, 16});

  EXPECT_FALSE(Store.get(1).has_value());
  EXPECT_TRUE(Store.put(1, 100));
  EXPECT_FALSE(Store.put(1, 200)); // overwrite, not insert
  ASSERT_TRUE(Store.get(1).has_value());
  EXPECT_EQ(*Store.get(1), 200u);

  EXPECT_TRUE(Store.put(2, 300));
  EXPECT_EQ(Store.size(), 2u);

  EXPECT_TRUE(Store.remove(1));
  EXPECT_FALSE(Store.remove(1));
  EXPECT_FALSE(Store.get(1).has_value());
  EXPECT_EQ(Store.size(), 1u);

  // Reinsert after a tombstone: the slot revives.
  EXPECT_TRUE(Store.put(1, 400));
  EXPECT_EQ(*Store.get(1), 400u);
  EXPECT_TRUE(Store.quiesce());
}

TYPED_TEST(ShardedKvStoreTest, ScanAccountsForEveryLiveEntry) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{4, 16});

  constexpr uint64_t Keys = 500;
  uint64_t ExpectedSum = 0;
  for (uint64_t K = 0; K < Keys; ++K) {
    EXPECT_TRUE(Store.put(K, K * 3));
    ExpectedSum += K * 3;
  }
  for (uint64_t K = 0; K < Keys; K += 5) {
    EXPECT_TRUE(Store.remove(K));
    ExpectedSum -= K * 3;
  }

  uint64_t ScannedLive = 0, ScannedSum = 0;
  for (unsigned S = 0; S < Store.shardCount(); ++S) {
    ShardTable::ScanStats St = Store.scanShard(S);
    ScannedLive += St.LiveEntries;
    ScannedSum += St.ValueSum;
  }
  EXPECT_EQ(ScannedLive, Store.size());
  EXPECT_EQ(ScannedLive, Keys - Keys / 5);
  EXPECT_EQ(ScannedSum, ExpectedSum);
  EXPECT_TRUE(Store.quiesce());
}

TYPED_TEST(ShardedKvStoreTest, KeysSpreadAcrossEveryShard) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{16, 16});
  for (uint64_t K = 0; K < 2048; ++K)
    Store.put(K, K);
  for (unsigned S = 0; S < Store.shardCount(); ++S)
    EXPECT_GT(Store.shardTable(S).liveCount(), 0u)
        << "sequential keys never reached shard " << S;
}

// Deleting and reinserting must reuse tombstoned slots instead of growing
// the table: a same-size churn workload that doubled capacity on every
// load-factor trip would never stop allocating.
TEST(ShardedKvStore, TombstoneChurnDoesNotGrowTheTable) {
  RuntimeContext Ctx;
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{1, 64});

  // 20 live keys in a 64-slot shard: well under the 70% trigger.
  for (uint64_t K = 0; K < 20; ++K)
    Store.put(K, K);
  std::size_t Cap = Store.shardTable(0).capacity();
  EXPECT_EQ(Cap, 64u);

  // Thousands of delete/reinsert cycles. Same-key reinsertion revives the
  // tombstone in place; alternating keys exercise first-tombstone reuse.
  for (int Cycle = 0; Cycle < 3000; ++Cycle) {
    uint64_t K = static_cast<uint64_t>(Cycle % 20);
    EXPECT_TRUE(Store.remove(K));
    EXPECT_TRUE(Store.put(K, K + 1000));
  }
  // Live count is unchanged, and any resize the churn tripped must have
  // been a same-size tombstone purge, never a doubling.
  EXPECT_EQ(Store.size(), 20u);
  EXPECT_EQ(Store.shardTable(0).capacity(), Cap);
  // The leak oracle: exactly one pool cell per live entry after a drain.
  EXPECT_TRUE(Store.quiesce());
}

// Readers keep probing (GET + SCAN) while a writer forces repeated
// resizes; epoch reclamation must keep every retired table dereferenceable
// and validation must discard every torn read.
TEST(ShardedKvStore, ResizeUnderConcurrentReadersLosesNothing) {
  RuntimeContext Ctx;
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{2, 16});

  constexpr uint64_t Keys = 3000;
  constexpr uint64_t ValueTag = 0x5000000000000000ull;
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> BadReads{0};

  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&, R] {
      uint64_t K = static_cast<uint64_t>(R);
      while (!Done.load(std::memory_order_acquire)) {
        auto V = Store.get(K % Keys);
        // A found key must carry the value its writer published — a torn
        // or stale-table read that escaped validation would not.
        if (V.has_value() && *V != (ValueTag | (K % Keys)))
          BadReads.fetch_add(1, std::memory_order_relaxed);
        if (K % 64 == 0)
          (void)Store.scanShard(static_cast<unsigned>(K) &
                                (Store.shardCount() - 1));
        ++K;
      }
    });

  for (uint64_t K = 0; K < Keys; ++K)
    EXPECT_TRUE(Store.put(K, ValueTag | K));
  Done.store(true, std::memory_order_release);
  for (auto &T : Readers)
    T.join();

  EXPECT_EQ(BadReads.load(), 0u);
  EXPECT_GT(Store.totalResizes(), 0u) << "growth workload never resized";
  EXPECT_EQ(Store.size(), Keys);
  for (uint64_t K = 0; K < Keys; ++K) {
    auto V = Store.get(K);
    ASSERT_TRUE(V.has_value()) << "key " << K << " lost across resizes";
    EXPECT_EQ(*V, ValueTag | K);
  }
  EXPECT_TRUE(Store.quiesce());
}

// remove() hands its cell straight back to the shard's pool: after churn
// that never resizes, the pool matches the live count and the epoch domain
// holds nothing, with no quiesce().
TYPED_TEST(ShardedKvStoreTest, RemoveRecyclesCellsWithoutEpochRetires) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{4, 1024});
  for (uint64_t K = 0; K < 200; ++K)
    Store.put(K, K);
  for (uint64_t K = 0; K < 2000; ++K) {
    EXPECT_TRUE(Store.remove(K % 200));
    EXPECT_TRUE(Store.put(K % 200, K));
  }
  for (uint64_t K = 0; K < 200; K += 3)
    EXPECT_TRUE(Store.remove(K));
  ASSERT_EQ(Store.totalResizes(), 0u) << "churn resized; the check is moot";
  for (unsigned S = 0; S < Store.shardCount(); ++S)
    EXPECT_EQ(Store.shardTable(S).poolLiveCells(),
              Store.shardTable(S).liveCount())
        << "shard " << S;
  EXPECT_EQ(Store.epoch().pendingCount(), 0u);
}

namespace {

template <typename Policy>
class ShardedKvStoreRecycleTest : public ::testing::Test {
protected:
  RuntimeContext Ctx;
};

using OptimisticPolicies = ::testing::Types<SoleroPolicy, SeqLockPolicy>;

} // namespace

TYPED_TEST_SUITE(ShardedKvStoreRecycleTest, OptimisticPolicies);

// Optimistic readers GET key A while the writer moves A's cell to key B
// and back: remove(A) frees the cell, put(B) takes it from the pool (LIFO)
// and writes B's value into it, put(A) revives A with a fresh cell and
// remove(B) frees the old one again. A reader still holding A's old cell
// reads B's value; validation must discard it, so every GET returns A's
// tag or a miss.
TYPED_TEST(ShardedKvStoreRecycleTest, ReadersNeverSeeARecycledCellsNewValue) {
  ShardedKvStore<TypeParam> Store(this->Ctx, KvStoreConfig{1, 64});
  constexpr uint64_t A = 1, B = 2;
  constexpr uint64_t TagA = 0xA000000000000000ull;
  constexpr uint64_t TagB = 0xB000000000000000ull;
  constexpr uint64_t TagMask = 0xF000000000000000ull;
  Store.put(A, TagA);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Hits{0}, BadReads{0};

  std::vector<std::thread> Readers;
  for (int R = 0; R < 2; ++R)
    Readers.emplace_back([&] {
      while (!Done.load(std::memory_order_acquire)) {
        auto V = Store.get(A);
        if (!V.has_value())
          continue;
        Hits.fetch_add(1, std::memory_order_relaxed);
        if ((*V & TagMask) != TagA)
          BadReads.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Hand the cell over for at least 500 ms: a stale read needs a reader to
  // stall between its cell and payload loads, which is rare (on a 4-CPU
  // host, a copy whose SeqLock readers skip validation failed 4 runs in 6).
  // Go on until the readers have found A often enough to matter.
  const auto Until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  uint64_t I = 0;
  while (++I <= 20000 || std::chrono::steady_clock::now() < Until ||
         (Hits.load(std::memory_order_relaxed) < 1000 && I <= 5000000)) {
    if (!Store.remove(A) || !Store.put(B, TagB | I) ||
        !Store.put(A, TagA | I) || !Store.remove(B)) {
      ADD_FAILURE() << "hand-over " << I << " found the wrong key state";
      break;
    }
  }
  Done.store(true, std::memory_order_release);
  for (auto &T : Readers)
    T.join();

  EXPECT_EQ(BadReads.load(), 0u);
  EXPECT_GE(Hits.load(), 1000u) << "readers rarely found A";
  EXPECT_EQ(Store.totalResizes(), 0u);
  EXPECT_EQ(*Store.get(A), TagA | (I - 1));
  EXPECT_TRUE(Store.quiesce());
}

// With no cell retires left, big slot arrays run the epoch collection
// themselves. Growing one shard from 64 to 65536 slots retires ten arrays;
// the three of 8192 slots or more each advance the epoch once, and three
// advances free everything retired before the first, so at most the last
// few arrays stay pending without drainAll().
TEST(ShardedKvStore, GrowingPastCollectSlotsFreesRetiredArrays) {
  RuntimeContext Ctx;
  ShardedKvStore<SoleroPolicy> Store(Ctx, KvStoreConfig{1, 64});
  for (uint64_t K = 0; Store.shardTable(0).capacity() < 65536; ++K)
    Store.put(K, K);
  EXPECT_EQ(Store.totalResizes(), 10u);
  EXPECT_LE(Store.epoch().pendingCount(), 3u);
}

namespace {

/// A bare shard table plus the entries it should hold.
struct TableWithModel {
  EpochReclaimer Epoch;
  ShardTable Table;
  std::map<uint64_t, uint64_t> Model;

  explicit TableWithModel(std::size_t Cap) : Table(Epoch, Cap) {}
  ~TableWithModel() { Epoch.drainAll(); }

  void put(uint64_t K, uint64_t V) {
    EXPECT_EQ(Table.put(K, V), Model.count(K) == 0);
    Model[K] = V;
  }
  void remove(uint64_t K) { EXPECT_EQ(Table.remove(K), Model.erase(K) == 1); }

  /// scan() must count and sum exactly what the model holds.
  void expectScanMatches() const {
    uint64_t Sum = 0;
    for (const auto &[K, V] : Model)
      Sum += V;
    ShardTable::ScanStats St = Table.scan();
    EXPECT_EQ(St.LiveEntries, Model.size());
    EXPECT_EQ(St.LiveEntries, Table.liveCount());
    EXPECT_EQ(St.ValueSum, Sum);
  }
};

} // namespace

// Capacities 16 and 32 are smaller than one scan block, 64 is exactly one,
// 8192 is many blocks and crosses the forced-validation stride. Each table
// holds live entries, tombstones and a tombstone revived by put().
TEST(ShardTable, ScanCountsExactlyAtEveryCapacity) {
  for (std::size_t Cap : {16u, 32u, 64u, 8192u}) {
    SCOPED_TRACE(Cap);
    TableWithModel T(Cap);
    T.expectScanMatches();           // empty
    const uint64_t N = Cap * 6 / 10; // under the 70% resize trigger
    for (uint64_t K = 0; K < N; ++K)
      T.put(K * 7919, 1000 + K);
    for (uint64_t K = 0; K < N; K += 3)
      T.remove(K * 7919);
    T.put(0, 42);    // revive the first tombstone
    T.put(7919, 43); // overwrite in place
    EXPECT_EQ(T.Table.capacity(), Cap);
    EXPECT_EQ(T.Table.resizeCount(), 0u);
    T.expectScanMatches();
  }
}

// Delete/insert churn with fresh keys fills a table with tombstones until
// put() purges them at the same capacity; scan() must read the rehashed
// array as exactly as the original.
TEST(ShardTable, ScanCountsExactlyAfterSameSizePurge) {
  TableWithModel T(64);
  for (uint64_t K = 0; K < 20; ++K)
    T.put(K, K * 3);
  T.expectScanMatches();
  uint64_t Next = 20;
  for (int Cycle = 0; Cycle < 200 && T.Table.resizeCount() == 0; ++Cycle) {
    T.remove(Next - 20);
    T.put(Next, Next * 3);
    ++Next;
  }
  ASSERT_GT(T.Table.resizeCount(), 0u) << "churn never purged tombstones";
  EXPECT_EQ(T.Table.capacity(), 64u);
  T.expectScanMatches();
  T.remove(Next - 1); // a tombstone in the rehashed array
  T.expectScanMatches();
  T.put(Next - 1, 7); // revived
  T.expectScanMatches();
}

namespace {

/// Runs scan() inside a fake speculative section whose read record a
/// "writer" has already invalidated, with the poll flag raised or clear.
/// Returns whether scan() threw SpeculationFault for that record.
bool scanThrowsForInvalidatedRecord(std::size_t Cap, bool PollRaised) {
  TableWithModel T(Cap);
  for (uint64_t K = 0; K < Cap / 2; ++K)
    T.put(K, K);
  ThreadState &TS = ThreadRegistry::current();
  ObjectHeader H;
  H.word().store(0x100);
  TS.pushRead(H, 0x100);
  H.word().store(0x200);
  TS.PollFlag.store(PollRaised ? 1 : 0);
  const uint64_t AbortsBefore = TS.Counters.AsyncAborts;
  bool Thrown = false;
  try {
    (void)T.Table.scan();
  } catch (SpeculationFault &F) {
    Thrown = true;
    EXPECT_EQ(F.Depth, 0u);
  }
  TS.popRead();
  EXPECT_EQ(TS.PollFlag.load(), 0u) << "the raised event was not consumed";
  EXPECT_EQ(TS.Counters.AsyncAborts - AbortsBefore, Thrown ? 1u : 0u);
  return Thrown;
}

} // namespace

// A raised poll flag is seen at the first block's check point, whatever
// the table's size (16 slots is smaller than one block).
TEST(ShardTable, ScanThrowsAtFirstCheckpointWhenPollRaised) {
  EXPECT_TRUE(scanThrowsForInvalidatedRecord(16, /*PollRaised=*/true));
  EXPECT_TRUE(scanThrowsForInvalidatedRecord(8192, /*PollRaised=*/true));
}

// With no event raised, the forced validation every 4096 slots still
// catches a doomed pass over an 8192-slot table; a 2048-slot pass ends
// before the first forced validation and completes.
TEST(ShardTable, ScanForcesValidationEvery4096Slots) {
  EXPECT_TRUE(scanThrowsForInvalidatedRecord(8192, /*PollRaised=*/false));
  EXPECT_FALSE(scanThrowsForInvalidatedRecord(2048, /*PollRaised=*/false));
}
