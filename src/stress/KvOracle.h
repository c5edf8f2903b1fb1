//===- stress/KvOracle.h - ShardedKv invariant oracle -----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-store invariants of a kv::ShardedKvStore under concurrent
/// traffic, shared by the ShardedKv torture mix (stress/TortureRunner.cpp)
/// and the chaos soak (`bench/kv_service`). The oracle owns
///
///   - one invariant pair per shard (A, B == -A), changed only by
///     bumpPair() in one write section under an exclusion token, plus the
///     shard's authoritative bump count;
///   - one churn bitmap per worker thread, over keys only that thread
///     mutates.
///
/// It checks them three ways. Each write returns its verdict (the token
/// was free; the churn put/remove agreed with the bitmap). The read-side
/// predicates pairHolds() and scanHolds() are pure, so a caller evaluates
/// them inside its read section and returns the verdict *from* the read
/// closure: a policy that re-executes an inconsistent read (SeqLock) stays
/// side-effect-free. verify() runs once the workers are joined.
///
/// Pair keys are written through writeShard() on their home shard and are
/// never hash-routed; churn keys are ordinary hash-routed keys. Both
/// namespaces lie far above any prefill range [0, BaseLive).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_STRESS_KVORACLE_H
#define SOLERO_STRESS_KVORACLE_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kv/ShardTable.h"
#include "support/CacheLine.h"

namespace solero {
namespace stress {

template <typename StoreT> class KvOracle {
public:
  static uint64_t pairKeyA(unsigned Shard) {
    return (1ull << 48) + 2ull * Shard;
  }
  static uint64_t pairKeyB(unsigned Shard) { return pairKeyA(Shard) + 1; }
  static uint64_t churnKey(unsigned Thread, unsigned Idx) {
    return (1ull << 40) | (static_cast<uint64_t>(Thread) << 20) | Idx;
  }

  /// Seeds every shard's pair at zero, one write section per shard.
  KvOracle(StoreT &Store, unsigned Threads, unsigned ChurnKeysPerThread)
      : Store(Store), ChurnKeys(ChurnKeysPerThread),
        Pairs(Store.shardCount()), Owners(Threads) {
    for (Owner &O : Owners)
      O.Bits.assign((ChurnKeys + 63) / 64, 0);
    for (unsigned S = 0; S < Store.shardCount(); ++S)
      Store.writeShard(S, [&](kv::ShardTable &T) {
        T.put(pairKeyA(S), 0);
        T.put(pairKeyB(S), 0);
      });
  }

  /// Claims \p Shard's exclusion token for the nonzero \p Tag. False when
  /// another writer holds it: two threads inside one "exclusive" section.
  bool claim(unsigned Shard, uint64_t Tag) {
    return Pairs[Shard].Token.exchange(Tag, std::memory_order_acq_rel) == 0;
  }
  /// Releases the token; false when it no longer carried \p Tag.
  bool release(unsigned Shard, uint64_t Tag) {
    return Pairs[Shard].Token.exchange(0, std::memory_order_acq_rel) == Tag;
  }

  /// One read-modify-write of \p Shard's pair in one write section by the
  /// writer tagged \p Tag. False when mutual exclusion broke.
  bool bumpPair(unsigned Shard, uint64_t Tag) {
    return Store.writeShard(Shard, [&](kv::ShardTable &T) {
      bool Alone = claim(Shard, Tag);
      uint64_t V = T.get(pairKeyA(Shard)).Value + 1;
      T.put(pairKeyA(Shard), V);
      T.put(pairKeyB(Shard), 0 - V);
      Pairs[Shard].Bumps.fetch_add(1, std::memory_order_relaxed);
      return release(Shard, Tag) && Alone;
    });
  }

  /// Flips churn key \p Idx of \p Thread: a put when the owner's bitmap
  /// says absent, a remove when present. False when the store's return
  /// value disagrees with the bitmap.
  bool flipChurn(unsigned Thread, unsigned Idx) {
    const uint64_t Key = churnKey(Thread, Idx);
    bool Changed =
        owned(Thread, Idx) ? Store.remove(Key) : Store.put(Key, Key);
    Owners[Thread].Bits[Idx / 64] ^= 1ull << (Idx % 64);
    return Changed;
  }

  /// GETs churn key \p Idx of \p Thread (one read section): presence and
  /// payload must match the owner's bitmap.
  bool getOwnKey(unsigned Thread, unsigned Idx) {
    const uint64_t Key = churnKey(Thread, Idx);
    std::optional<uint64_t> V = Store.get(Key);
    return V.has_value() == owned(Thread, Idx) && (!V || *V == Key);
  }

  /// Inside a read section on \p Shard: the pair is present and B == -A.
  static bool pairHolds(const kv::ShardTable &T, unsigned Shard) {
    kv::ShardTable::Lookup A = T.get(pairKeyA(Shard));
    kv::ShardTable::Lookup B = T.get(pairKeyB(Shard));
    return A.Found && B.Found && A.Value + B.Value == 0;
  }

  /// Inside a read section: a full pass counts exactly liveCount() entries.
  static bool scanHolds(const kv::ShardTable &T) {
    return T.scan().LiveEntries == T.liveCount();
  }

  /// End-of-run checks; the workers must be joined. \p BaseLive is the
  /// number of entries outside the oracle's keys. Returns one line per
  /// violated invariant; empty means every invariant held.
  std::vector<std::string> verify(std::size_t BaseLive) {
    std::vector<std::string> Failures;
    auto Num = [](uint64_t V) { return std::to_string(V); };
    std::size_t Expected = BaseLive + 2 * Pairs.size();
    for (unsigned S = 0; S < Pairs.size(); ++S) {
      const std::string Shard = "shard " + Num(S) + ": ";
      const kv::ShardTable &T = Store.shardTable(S);
      const uint64_t A = T.get(pairKeyA(S)).Value;
      const uint64_t Bumps = Pairs[S].Bumps.load(std::memory_order_relaxed);
      if (!pairHolds(T, S))
        Failures.push_back(Shard + "pair torn or missing");
      else if (A != Bumps) // a lost or duplicated update
        Failures.push_back(Shard + "A=" + Num(A) + " != bumps=" + Num(Bumps));
      if (Pairs[S].Token.load(std::memory_order_relaxed) != 0)
        Failures.push_back(Shard + "exclusion token left claimed");
      if (!Store.shardPolicy(S).released())
        Failures.push_back(Shard + "lock not released/deflated after the run");
    }
    for (unsigned Th = 0; Th < Owners.size(); ++Th)
      for (unsigned I = 0; I < ChurnKeys; ++I) {
        const uint64_t Key = churnKey(Th, I);
        const std::string Who = "thread " + Num(Th) + " idx " + Num(I);
        if (Store.shardTable(Store.shardOf(Key)).get(Key).Found != owned(Th, I))
          Failures.push_back("churn key (" + Who + ") != owner's bitmap");
      }
    for (const Owner &O : Owners)
      for (uint64_t W : O.Bits)
        Expected += static_cast<std::size_t>(std::popcount(W));
    if (Store.size() != Expected)
      Failures.push_back("size conservation: store has " + Num(Store.size()) +
                         " entries, expected " + Num(Expected));
    if (!Store.quiesce()) {
      uint64_t Cells = 0, Live = 0;
      for (unsigned S = 0; S < Pairs.size(); ++S) {
        Cells += Store.shardTable(S).poolLiveCells();
        Live += Store.shardTable(S).liveCount();
      }
      Failures.push_back("leak: " + Num(Cells) + " pool cells for " +
                         Num(Live) + " live entries after drain");
    }
    return Failures;
  }

private:
  /// A shard's exclusion token and bump count. The count is bumped inside
  /// the write section, so it is serialized with the pair itself.
  struct Pair {
    std::atomic<uint64_t> Token{0};
    std::atomic<uint64_t> Bumps{0};
  };
  /// One thread's churn bitmap, on its own line: only its owner writes it.
  struct alignas(CacheLineSize) Owner {
    std::vector<uint64_t> Bits;
  };

  bool owned(unsigned Thread, unsigned Idx) const {
    return (Owners[Thread].Bits[Idx / 64] >> (Idx % 64)) & 1;
  }

  StoreT &Store;
  const unsigned ChurnKeys;
  std::vector<Pair> Pairs;
  std::vector<Owner> Owners;
};

} // namespace stress
} // namespace solero

#endif // SOLERO_STRESS_KVORACLE_H
