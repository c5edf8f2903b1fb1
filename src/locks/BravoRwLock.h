//===- locks/BravoRwLock.h - BRAVO biased reader-writer lock ----*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BRAVO (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer Locks")
/// layered over the repository's centralized ReadWriteLock. The paper's
/// RWLock baseline pays an atomic RMW on shared state per read acquisition;
/// BRAVO removes that coherence hot spot for read-mostly locks:
///
///   - A process-wide *visible-readers table* holds reader publications.
///     While a lock's `RBias` flag is set, a reader publishes itself with a
///     plain store into a slot it alone owns, executes a store-load fence,
///     rechecks `RBias`, and enters — zero RMWs on shared state and no
///     shared cache line written.
///   - A writer acquires the underlying lock, then *revokes*: it clears
///     `RBias`, fences, and scans the table until no slot still advertises
///     this lock. The Dekker pairing of {publish; fence; recheck} against
///     {clear bias; fence; scan} guarantees the writer either observes the
///     reader's slot or the reader observes the cleared bias and falls back
///     to the underlying read path.
///   - The *adaptive policy* (the flat-path degradation idea from Fissile
///     Locks, counted in reads instead of time): a revocation leaves bias
///     off until RearmAfterSlowReads slow-path reads of *this* lock have
///     gone by, and the last of them re-arms it. With R reads per write a
///     share 16/(16+R) of reads run slow, a lock with fewer than ~16 reads
///     per write revokes on under half its writes, and a pure write storm
///     never re-arms, so write-heavy locks converge to the plain underlying
///     lock instead of paying a table scan per write. Neither side reads a
///     clock, except inside a watchdog's forced window (forceRevokeBias).
///
/// Slot placement differs from the original's single global array: the
/// table is partitioned by NUMA node (support/NumaTopology.h), and a
/// thread's slot group is one cache line in the partition of the node it
/// first published from, so reader publication stays node-local. Within
/// the group the slot is keyed by a mixed hash of thread id and lock
/// address. Because a group is written only by its owning thread, the
/// publication can stay a plain store — no CAS even on the slot, which the
/// original BRAVO needs because its hash shares slots between threads.
///
/// The lock itself carries no per-thread state. A thread holds a lock
/// biased exactly when its own slot advertises that lock, and the nesting
/// depth of that hold lives in the thread's TLS beside its group pointer,
/// so a biased read section writes only lines its own thread owns.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_LOCKS_BRAVORWLOCK_H
#define SOLERO_LOCKS_BRAVORWLOCK_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "locks/ReadWriteLock.h"
#include "support/CacheLine.h"

namespace solero {

/// BRAVO tuning.
struct BravoConfig {
  /// Enable the biased reader fast path at all; false degenerates to the
  /// underlying lock (the A/B baseline in benches).
  bool BiasEnabled = true;
};

/// Process-wide visible-readers table, partitioned by NUMA node.
///
/// Layout: nodeCount() partitions x ThreadRegistry::MaxThreads groups; a
/// group is one cache line of 8 slots owned exclusively by one thread
/// (partition = node at first publication, group index = registry slot).
/// Exclusive ownership is what makes plain-store publication sound: two
/// threads can never race on one slot, and a thread reading two locks that
/// collide within its group simply sends the second to the slow path.
class BravoReaderTable {
public:
  using Slot = std::atomic<const void *>;
  static constexpr unsigned SlotsPerGroup = CacheLineSize / sizeof(Slot);

  static BravoReaderTable &instance();

  /// The calling thread's slot for a lock, and that thread's hold depth on
  /// it. Depth counts nested biased holds of whichever lock Publication
  /// advertises and is 0 while Publication is empty; it lives in the
  /// thread's TLS, so only the owner ever reads or writes it.
  struct ThreadSlot {
    Slot &Publication;
    uint32_t &Depth;
  };

  /// The calling thread's slot for \p Lock (the caller checks occupancy).
  /// First call from a thread pins its group to the current NUMA node's
  /// partition.
  ThreadSlot slotFor(const void *Lock);

  /// Spin-waits until no slot still advertises \p Lock (writer-side
  /// revocation scan). Returns the number of slots that had to drain.
  uint64_t waitForReadersOf(const void *Lock) const;

  /// Number of slots currently advertising \p Lock (oracle/test helper;
  /// racy by nature).
  uint64_t countReadersOf(const void *Lock) const;

  unsigned partitionCount() const { return Partitions; }

private:
  BravoReaderTable();

  struct alignas(CacheLineSize) Group {
    Slot Slots[SlotsPerGroup];
  };

  unsigned Partitions;
  std::size_t GroupsPerPartition;
  std::unique_ptr<Group[]> Groups;
  /// Per-partition high-water mark of assigned group indices, so the
  /// revocation scan skips never-used groups.
  std::unique_ptr<std::atomic<uint32_t>[]> HighWater;
};

/// A quiesced copy of one BravoRwLock's adaptive state: the learned bias
/// state a warm image stores (image/Resources.h writeBravoState). The
/// forced-window deadline is serialized as *remaining* nanoseconds: the
/// absolute steady_clock deadline is meaningless in another process (or
/// even later in this one). The slow-read budget is not stored; it is
/// refilled by the next revocation.
struct BravoSnapshot {
  bool RBias = false;
  int64_t InhibitRemainingNs = 0;
  uint64_t Revocations = 0;
};

/// Reentrant reader-writer lock with BRAVO reader bias over ReadWriteLock.
/// Same interface and reentrancy semantics as the underlying lock
/// (including write-to-read downgrade; read-to-write upgrade deadlocks, as
/// it does in java.util.concurrent).
class BravoRwLock {
public:
  explicit BravoRwLock(RuntimeContext &Ctx, BravoConfig Config = BravoConfig());

  BravoRwLock(const BravoRwLock &) = delete;
  BravoRwLock &operator=(const BravoRwLock &) = delete;

  void readLock();
  void readUnlock();
  void writeLock();
  void writeUnlock();

  bool writeHeldByCurrentThread() const {
    return Underlying.writeHeldByCurrentThread();
  }

  /// Read holds visible anywhere: underlying count plus published slots.
  uint32_t readerCount() const;

  /// Current bias state (tests/stats; racy).
  bool readBiased() const { return RBias.load(std::memory_order_relaxed); }
  /// Writer-side bias revocations performed so far.
  uint64_t revocations() const {
    return Revocations.load(std::memory_order_relaxed);
  }

  /// Watchdog recovery hook (src/resilience/Watchdog.h): revokes reader
  /// bias from *outside* the write path and inhibits re-arming for
  /// \p InhibitNs (a forced window: slow reads that spend their budget
  /// inside it refill it instead of re-arming). Unlike the writer's
  /// revokeBias() this does NOT drain published readers — the caller is a
  /// monitor thread diagnosing a stall, and spinning it on the very reader
  /// it suspects is stuck would hang the watchdog too. Mutual exclusion is
  /// preserved by a deferred drain: the flag set here makes the *next*
  /// writer (which must exclude those readers anyway) run the revocation
  /// scan even though it observes RBias already clear. New readers observe
  /// the cleared bias and queue on the underlying lock immediately.
  void forceRevokeBias(int64_t InhibitNs = 50'000'000);

  /// Captures bias/forced-window/revocation state for a warm image.
  /// Quiesce first (no reader or writer in flight) for a consistent
  /// capture.
  BravoSnapshot snapshot() const;

  /// Rehydrates from \p S. Requires quiescence; refuses (returns false,
  /// stays cold) while any read hold is visible, since a published biased
  /// reader must never coexist with a restore-time bias flip. Bias is
  /// re-enabled only when this lock's config allows it, and a forced
  /// window resumes with the image's remaining duration from *now*.
  bool restore(const BravoSnapshot &S);

  template <typename Fn> decltype(auto) synchronizedWrite(Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.WriteEntries;
    writeLock();
    ScopeExit Release([&] { writeUnlock(); });
    return F();
  }

  template <typename Fn> decltype(auto) synchronizedReadOnly(Fn &&F) {
    ThreadState &TS = ThreadRegistry::current();
    ++TS.Counters.ReadOnlyEntries;
    readLock();
    ScopeExit Release([&] { readUnlock(); });
    ReadGuard G(/*Speculative=*/false);
    return F(G);
  }

  static const char *protocolName() { return "BravoRW"; }

private:
  /// Slow-path reads a revocation leaves bias off for; the last re-arms.
  static constexpr uint32_t RearmAfterSlowReads = 16;

  void revokeBias();
  void maybeReenableBias();

  // Layout: slow readers CAS the underlying State on every read, so the
  // budget they count down sits beside it, on a line they already own;
  // the fields every reader loads (Config, RBias) start a line of their
  // own, which only revocation and re-arm write.

  /// Slow-path reads left before bias re-arms. Refilled by revokeBias()
  /// under the write hold; counted down by slow readers under their read
  /// hold with a relaxed load and store, so concurrent readers may lose a
  /// decrement, which only delays the re-arm.
  std::atomic<uint32_t> SlowReadBudget{0};
  ReadWriteLock Underlying;
  alignas(CacheLineSize) BravoConfig Config;
  std::atomic<bool> RBias{false};
  /// Set by forceRevokeBias(): published biased readers may still be
  /// draining, so the next writer must run the table scan even though it
  /// sees RBias already clear. Consumed (exchange to false) under the
  /// underlying write lock, so at most one writer pays the scan.
  std::atomic<bool> ForcedDrainPending{false};
  /// steady_clock ns deadline of a forced window (forceRevokeBias or a
  /// restored image); 0 when none is pending. Read only by a slow read
  /// that has spent the budget.
  std::atomic<int64_t> ForcedUntil{0};
  std::atomic<uint64_t> Revocations{0};
};

} // namespace solero

#endif // SOLERO_LOCKS_BRAVORWLOCK_H
