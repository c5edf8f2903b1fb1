//===- kv/ShardTable.h - Cache-friendly KV shard table ----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard of the sharded KV store: an open-addressing hash table (linear
/// probing with tombstones) mapping uint64 keys to uint64 payloads held in
/// type-stable pool cells. The layout is deliberately flat — one probe
/// sequence over a contiguous slot array, one pointer hop to the value —
/// so the KV service's GET path is dominated by the lock protocol it runs
/// under, not by allocator or pointer-chasing noise.
///
/// Concurrency contract (enforced by ShardedKvStore, not by this class):
///
///   - Mutations (put/remove, and the resizes they trigger) run only
///     inside the shard's *writing* critical section: at most one mutator
///     at a time.
///   - get/scan/liveCount run inside a *read-only* critical section with
///     the store's epoch pinned. Lock-holding readers (Lock/RWLock/BRAVO)
///     see a quiescent table; optimistic readers (SOLERO, SeqLock read
///     path) may overlap one mutator, so every slot field is an atomic,
///     probe loops are bounded by the immutable capacity of the table
///     snapshot they loaded, and any value read during an overlap is
///     discarded by the protocol's end-of-section validation.
///   - Value cells return to the shard's TypeStablePool at remove(). Only
///     put(), in a write section on this shard, reuses one: lock-holding
///     readers exclude that section, optimistic ones validate after it (as
///     for put()'s in-place overwrite). Resized-away slot arrays are really
///     deleted, so they retire through the EpochReclaimer. A stale reader
///     always dereferences well-formed memory (DESIGN.md §3: this pair
///     stands in for the JVM's GC).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_KV_SHARDTABLE_H
#define SOLERO_KV_SHARDTABLE_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mm/EpochReclaimer.h"
#include "mm/TypeStablePool.h"
#include "runtime/ReadGuard.h"
#include "support/Assert.h"

namespace solero {
namespace kv {

/// Mixes a key into a probe hash (SplitMix64 finalizer). Also used by the
/// store for shard selection (high bits) while probing masks the low bits,
/// so the two partitions stay decorrelated.
inline uint64_t mixKey(uint64_t Key) {
  uint64_t Z = Key + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// One shard's table. See the file comment for the concurrency contract.
class ShardTable {
public:
  /// Keys must be < MaxKey (the all-ones value is reserved so key+1 never
  /// wraps to the empty marker).
  static constexpr uint64_t MaxKey = ~0ull - 1;

  struct Lookup {
    uint64_t Value = 0;
    bool Found = false;
  };

  /// Aggregate of one consistent pass over the shard (the SCAN op).
  struct ScanStats {
    uint64_t LiveEntries = 0;
    uint64_t ValueSum = 0;
  };

  ShardTable(EpochReclaimer &Epoch, std::size_t InitialCapacity)
      : Epoch(Epoch) {
    std::size_t Cap = 16;
    while (Cap < InitialCapacity)
      Cap <<= 1;
    Current.store(new Table(Cap), std::memory_order_release);
  }

  ShardTable(const ShardTable &) = delete;
  ShardTable &operator=(const ShardTable &) = delete;

  ~ShardTable() { delete Current.load(std::memory_order_acquire); }

  // --- Read side (read-only section + epoch pin) -------------------------

  Lookup get(uint64_t Key) const {
    const Table *T = Current.load(std::memory_order_acquire);
    const uint64_t Needle = Key + 1;
    uint64_t H = mixKey(Key);
    for (std::size_t I = 0; I < T->Capacity; ++I) {
      const Slot &S = T->Slots[(H + I) & T->Mask];
      uint64_t K = S.KeyPlusOne.load(std::memory_order_acquire);
      if (K == 0)
        return {}; // empty slot ends the probe chain
      if (K == Needle) {
        const ValueCell *C = S.Cell.load(std::memory_order_acquire);
        if (!C)
          return {}; // tombstone
        return {C->Payload.load(std::memory_order_relaxed), true};
      }
    }
    return {};
  }

  /// Slots scanned between two speculation check points.
  static constexpr uint32_t ScanBlock = 64;
  /// Retiring a slot array this big (128 KiB, glibc's mmap threshold) runs
  /// an epoch collection; freeing smaller ones early returns no RSS.
  static constexpr std::size_t CollectSlots = 8192;

  /// One pass over every slot: live-entry count and payload sum. Inside a
  /// validated section the count matches liveCount() exactly — the
  /// scan-consistency oracle the torture harness checks. A slot is live
  /// exactly when its cell is non-null (empty slots and tombstones both
  /// hold null, and put() publishes the cell before the key), so the body
  /// loads only the cell and reads the payload through it or through a
  /// zero cell: no branch on slot contents. The speculation checkpoint is
  /// polled once per ScanBlock slots, with a forced validation every 4096
  /// slots, so an optimistic scan overlapping a mutator aborts within one
  /// block of the event instead of completing a doomed pass.
  ScanStats scan() const {
    const Table *T = Current.load(std::memory_order_acquire);
    const Slot *Slots = T->Slots.data();
    const std::size_t Cap = T->Capacity;
    ScanStats St;
    uint32_t Steps = 0;
    for (std::size_t Base = 0; Base < Cap; Base += ScanBlock) {
      speculationLoopGuard(Steps, ScanBlock);
      const std::size_t End = std::min(Base + ScanBlock, Cap);
      for (std::size_t I = Base; I < End; ++I) {
        const ValueCell *C = Slots[I].Cell.load(std::memory_order_acquire);
        St.LiveEntries += C != nullptr;
        St.ValueSum +=
            (C ? C : &ZeroCell)->Payload.load(std::memory_order_relaxed);
      }
    }
    return St;
  }

  /// Entries currently stored (maintained by mutators; readers see it
  /// consistent inside a validated section).
  std::size_t liveCount() const {
    return Live.load(std::memory_order_relaxed);
  }

  // --- Write side (writing critical section only) ------------------------

  /// Inserts or overwrites. Returns true when \p Key was newly inserted.
  bool put(uint64_t Key, uint64_t Value) {
    SOLERO_CHECK(Key <= MaxKey, "ShardTable key out of range");
    Table *T = Current.load(std::memory_order_relaxed);
    // Grow (or purge tombstones in place) before the table gets dense
    // enough to stretch probe chains: beyond 7/8... keep max load at 70%.
    if ((usedSlots() + 1) * 10 > T->Capacity * 7)
      T = resize();
    const uint64_t Needle = Key + 1;
    uint64_t H = mixKey(Key);
    Slot *FirstTombstone = nullptr;
    for (std::size_t I = 0; I < T->Capacity; ++I) {
      Slot &S = T->Slots[(H + I) & T->Mask];
      uint64_t K = S.KeyPlusOne.load(std::memory_order_relaxed);
      if (K == Needle) {
        ValueCell *C = S.Cell.load(std::memory_order_relaxed);
        if (C) {
          // Overwrite in place: a single-word payload can never tear.
          C->Payload.store(Value, std::memory_order_relaxed);
          return false;
        }
        // Tombstone of this very key: revive it.
        S.Cell.store(newCell(Value), std::memory_order_release);
        addLive(1);
        --Tombstones;
        return true;
      }
      if (K == 0) {
        Slot &Target = FirstTombstone ? *FirstTombstone : S;
        if (FirstTombstone)
          --Tombstones;
        // Publish cell before key: a concurrent optimistic prober that
        // sees the key also sees the cell; the torn window in between is
        // rejected by its end-of-section validation anyway.
        Target.Cell.store(newCell(Value), std::memory_order_release);
        Target.KeyPlusOne.store(Needle, std::memory_order_release);
        addLive(1);
        return true;
      }
      if (!FirstTombstone &&
          S.Cell.load(std::memory_order_relaxed) == nullptr)
        FirstTombstone = &S;
    }
    SOLERO_CHECK(false, "ShardTable probe loop found no slot after resize");
    return false;
  }

  /// Tombstones \p Key and recycles its cell. True when it was live.
  bool remove(uint64_t Key) {
    Table *T = Current.load(std::memory_order_relaxed);
    const uint64_t Needle = Key + 1;
    uint64_t H = mixKey(Key);
    for (std::size_t I = 0; I < T->Capacity; ++I) {
      Slot &S = T->Slots[(H + I) & T->Mask];
      uint64_t K = S.KeyPlusOne.load(std::memory_order_relaxed);
      if (K == 0)
        return false;
      if (K == Needle) {
        ValueCell *C = S.Cell.load(std::memory_order_relaxed);
        if (!C)
          return false; // already a tombstone
        S.Cell.store(nullptr, std::memory_order_release);
        addLive(-1);
        ++Tombstones;
        Pool.deallocate(C);
        return true;
      }
    }
    return false;
  }

  // --- Introspection (tests, torture, reports) ---------------------------

  std::size_t capacity() const {
    return Current.load(std::memory_order_acquire)->Capacity;
  }
  uint64_t resizeCount() const {
    return Resizes.load(std::memory_order_relaxed);
  }
  /// Value cells currently handed out by this shard's pool. Equal to
  /// liveCount() outside a write section — the leak oracle.
  std::size_t poolLiveCells() const { return Pool.liveCount(); }

private:
  struct ValueCell {
    // No NSDMI: the enclosing class's TypeStablePool member evaluates
    // is_default_constructible_v<ValueCell> before nested-class NSDMIs are
    // parsed (they wait for the outermost class to complete). C++20
    // value-initialization zeroes Payload at slab creation instead.
    std::atomic<uint64_t> Payload;
  };

  /// What scan() reads for a slot that holds no cell.
  static inline const ValueCell ZeroCell{};

  struct Slot {
    /// 0 = never used; otherwise key+1 (tombstones keep their key so probe
    /// chains stay intact).
    std::atomic<uint64_t> KeyPlusOne{0};
    /// Null on an unused slot or tombstone.
    std::atomic<ValueCell *> Cell{nullptr};
  };

  struct Table {
    explicit Table(std::size_t Cap)
        : Capacity(Cap), Mask(Cap - 1), Slots(Cap) {}
    const std::size_t Capacity;
    const std::size_t Mask;
    std::vector<Slot> Slots;
  };

  std::size_t usedSlots() const {
    return Live.load(std::memory_order_relaxed) + Tombstones;
  }

  ValueCell *newCell(uint64_t Value) {
    ValueCell *C = Pool.allocate();
    C->Payload.store(Value, std::memory_order_relaxed);
    return C;
  }

  /// Writers are serialized by the shard lock: no locked RMW needed.
  void addLive(std::ptrdiff_t Delta) {
    Live.store(Live.load(std::memory_order_relaxed) + Delta,
               std::memory_order_relaxed);
  }

  /// Builds a rehashed table (doubled when live entries justify it, same
  /// size when tombstones do), publishes it, and epoch-retires the old
  /// array out from under any optimistic reader still probing it. Value
  /// cells are re-referenced, not copied.
  Table *resize() {
    Table *Old = Current.load(std::memory_order_relaxed);
    std::size_t Live_ = Live.load(std::memory_order_relaxed);
    std::size_t NewCap = Old->Capacity;
    if ((Live_ + 1) * 10 > NewCap * 4)
      NewCap <<= 1; // genuinely dense: grow
    Table *New = new Table(NewCap);
    for (std::size_t I = 0; I < Old->Capacity; ++I) {
      Slot &S = Old->Slots[I];
      uint64_t K = S.KeyPlusOne.load(std::memory_order_relaxed);
      ValueCell *C = S.Cell.load(std::memory_order_relaxed);
      if (K == 0 || !C)
        continue; // empty or tombstone: dropped by the rehash
      uint64_t H = mixKey(K - 1);
      for (std::size_t J = 0; J < New->Capacity; ++J) {
        Slot &D = New->Slots[(H + J) & New->Mask];
        if (D.KeyPlusOne.load(std::memory_order_relaxed) == 0) {
          D.Cell.store(C, std::memory_order_relaxed);
          D.KeyPlusOne.store(K, std::memory_order_relaxed);
          break;
        }
      }
    }
    Tombstones = 0;
    Resizes.fetch_add(1, std::memory_order_relaxed);
    Current.store(New, std::memory_order_release);
    const bool Collect = Old->Capacity >= CollectSlots;
    Epoch.retire(
        Old, [](void *Obj, void *) { delete static_cast<Table *>(Obj); },
        nullptr);
    // The store's only retires: too few to reach the periodic collection.
    if (Collect)
      Epoch.collect();
    return New;
  }

  EpochReclaimer &Epoch;
  TypeStablePool<ValueCell> Pool;
  std::atomic<Table *> Current{nullptr};
  std::atomic<std::size_t> Live{0};
  /// Writer-only (mutators are serialized by the shard lock).
  std::size_t Tombstones = 0;
  std::atomic<uint64_t> Resizes{0};
};

} // namespace kv
} // namespace solero

#endif // SOLERO_KV_SHARDTABLE_H
