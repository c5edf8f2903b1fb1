//===- kv/ShardedKvStore.h - Sharded lock-portfolio KV store ----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first subsystem in the repository that behaves like a service
/// rather than a benchmark: an in-memory key-value store partitioned into
/// cache-friendly shards (kv/ShardTable.h), each shard guarded by one
/// instance of a lock policy from the portfolio (workloads/LockPolicies.h:
/// Lock / RWLock / BRAVO / SOLERO, plus the SeqLock read-path policy).
/// GET and SCAN run as read-only critical sections — exactly the shape the
/// elision machinery attacks — while PUT and DELETE run as writing
/// sections; all shards share one epoch-reclamation domain so optimistic
/// readers never chase freed memory across a resize.
///
/// \p Policy is any type constructible from RuntimeContext& providing
/// `read(Fn)` (Fn takes ReadGuard&) and `write(Fn)` — the same policy
/// shape SynchronizedMap uses, so the store composes with everything the
/// figure benchmarks compare.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_KV_SHARDEDKVSTORE_H
#define SOLERO_KV_SHARDEDKVSTORE_H

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kv/ShardTable.h"
#include "mm/EpochReclaimer.h"
#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "support/CacheLine.h"

namespace solero {
namespace kv {

struct KvStoreConfig {
  /// Shard count (rounded up to a power of two). One lock per shard: more
  /// shards trade memory for lower per-lock write contention.
  unsigned Shards = 16;
  /// Initial slot-array capacity per shard (rounded up to a power of two).
  std::size_t InitialShardCapacity = 64;
};

template <typename Policy> class ShardedKvStore {
public:
  using ScanStats = ShardTable::ScanStats;

  explicit ShardedKvStore(RuntimeContext &Ctx, KvStoreConfig Config = {}) {
    unsigned N = 1;
    while (N < Config.Shards)
      N <<= 1;
    ShardMask = N - 1;
    Shards.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Shards.push_back(std::make_unique<Shard>(
          Ctx, Epoch, Config.InitialShardCapacity));
  }

  unsigned shardCount() const {
    return static_cast<unsigned>(Shards.size());
  }

  /// Shard of \p Key: high bits of the mixed key, decorrelated from the
  /// low bits the shard table probes with.
  unsigned shardOf(uint64_t Key) const {
    return static_cast<unsigned>(mixKey(Key) >> 32) & ShardMask;
  }

  // --- Point operations ---------------------------------------------------

  std::optional<uint64_t> get(uint64_t Key) {
    Shard &S = shard(shardOf(Key));
    EpochReclaimer::Pin P(Epoch);
    // Flat pair instead of std::optional through the elision engine's
    // try/catch region (same EH-spill reason as SynchronizedMap::get).
    ShardTable::Lookup R =
        S.Lock.read([&](ReadGuard &) { return S.Table.get(Key); });
    if (!R.Found)
      return std::nullopt;
    return R.Value;
  }

  /// Returns true when \p Key was newly inserted (false: overwritten).
  bool put(uint64_t Key, uint64_t Value) {
    Shard &S = shard(shardOf(Key));
    return S.Lock.write([&] { return S.Table.put(Key, Value); });
  }

  /// Returns true when \p Key was present.
  bool remove(uint64_t Key) {
    Shard &S = shard(shardOf(Key));
    return S.Lock.write([&] { return S.Table.remove(Key); });
  }

  /// Full consistent pass over one shard as a single read-only section.
  ScanStats scanShard(unsigned ShardIdx) {
    return readShard(ShardIdx,
                     [](const ShardTable &T, ReadGuard &) { return T.scan(); });
  }

  // --- Compound sections (bench + torture building blocks) ----------------

  /// Runs \p F(const ShardTable&, ReadGuard&) as one read-only critical
  /// section on shard \p ShardIdx with the epoch pinned.
  template <typename Fn> decltype(auto) readShard(unsigned ShardIdx, Fn &&F) {
    Shard &S = shard(ShardIdx);
    EpochReclaimer::Pin P(Epoch);
    return S.Lock.read([&](ReadGuard &G) {
      return F(static_cast<const ShardTable &>(S.Table), G);
    });
  }

  /// Runs \p F(ShardTable&) as one writing critical section on shard
  /// \p ShardIdx.
  template <typename Fn> decltype(auto) writeShard(unsigned ShardIdx, Fn &&F) {
    Shard &S = shard(ShardIdx);
    return S.Lock.write([&] { return F(S.Table); });
  }

  // --- Whole-store introspection ------------------------------------------

  /// Sum of the shards' live counts (relaxed reads; exact when quiescent).
  std::size_t size() const {
    std::size_t Total = 0;
    for (const auto &S : Shards)
      Total += S->Table.liveCount();
    return Total;
  }

  uint64_t totalResizes() const {
    uint64_t Total = 0;
    for (const auto &S : Shards)
      Total += S->Table.resizeCount();
    return Total;
  }

  /// Drains deferred reclamation (no reader may be pinned) and checks the
  /// leak oracle: every shard's pool must have exactly one live cell per
  /// live entry. False means a lost or duplicated cell return — the
  /// tombstone-reuse torture signature.
  bool quiesce() {
    Epoch.drainAll();
    for (const auto &S : Shards)
      if (S->Table.poolLiveCells() != S->Table.liveCount())
        return false;
    return true;
  }

  EpochReclaimer &epoch() { return Epoch; }
  Policy &shardPolicy(unsigned ShardIdx) { return shard(ShardIdx).Lock; }
  const ShardTable &shardTable(unsigned ShardIdx) const {
    return Shards[ShardIdx]->Table;
  }

private:
  /// Each shard starts on its own cache line: the whole point of sharding
  /// is that traffic to one lock does not bounce the lines of another.
  struct alignas(CacheLineSize) Shard {
    Shard(RuntimeContext &Ctx, EpochReclaimer &Epoch, std::size_t Capacity)
        : Lock(Ctx), Table(Epoch, Capacity) {}
    Policy Lock;
    ShardTable Table;
  };

  Shard &shard(unsigned Idx) { return *Shards[Idx]; }

  EpochReclaimer Epoch;
  std::vector<std::unique_ptr<Shard>> Shards;
  unsigned ShardMask = 0;
};

} // namespace kv
} // namespace solero

#endif // SOLERO_KV_SHARDEDKVSTORE_H
