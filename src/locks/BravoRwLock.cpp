//===- locks/BravoRwLock.cpp - BRAVO biased reader-writer lock ------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "locks/BravoRwLock.h"

#include "stress/InjectionPoint.h"
#include "support/Assert.h"
#include "support/Backoff.h"
#include "support/Clock.h"
#include "support/NumaTopology.h"

using namespace solero;

// --- BravoReaderTable ------------------------------------------------------

BravoReaderTable &BravoReaderTable::instance() {
  static BravoReaderTable Table;
  return Table;
}

BravoReaderTable::BravoReaderTable()
    : Partitions(NumaTopology::instance().nodeCount()),
      GroupsPerPartition(ThreadRegistry::MaxThreads),
      Groups(new Group[Partitions * GroupsPerPartition]),
      HighWater(new std::atomic<uint32_t>[Partitions]) {
  for (std::size_t G = 0; G < Partitions * GroupsPerPartition; ++G)
    for (Slot &S : Groups[G].Slots)
      S.store(nullptr, std::memory_order_relaxed);
  for (unsigned P = 0; P < Partitions; ++P)
    HighWater[P].store(0, std::memory_order_relaxed);
}

BravoReaderTable::ThreadSlot BravoReaderTable::slotFor(const void *Lock) {
  // The group is pinned per thread on first publication: one cache line in
  // the current NUMA node's partition, at the thread's registry slot. The
  // cache holds for the thread's lifetime (registry slots never change
  // while a thread lives), so steady-state cost is a TLS load plus the
  // lock-address mix. Depth[I] is the thread's hold depth on slot I: it
  // sits in TLS, not in the table or the lock, so counting a nested hold
  // writes no line another thread reads.
  struct GroupRef {
    Group *G = nullptr;
    uint64_t ThreadMix = 0;
    uint32_t Depth[SlotsPerGroup] = {};
  };
  static thread_local GroupRef Ref;
  if (!Ref.G) {
    ThreadState &TS = ThreadRegistry::current();
    unsigned Node = NumaTopology::instance().currentNode();
    if (Node >= Partitions)
      Node = 0;
    Ref.G = &Groups[static_cast<std::size_t>(Node) * GroupsPerPartition +
                    TS.slot()];
    Ref.ThreadMix =
        (static_cast<uint64_t>(TS.slot()) + 1) * 0xBF58476D1CE4E5B9ull;
    std::atomic<uint32_t> &HW = HighWater[Node];
    uint32_t Cur = HW.load(std::memory_order_relaxed);
    while (Cur < TS.slot() + 1 &&
           !HW.compare_exchange_weak(Cur, TS.slot() + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed))
      ;
  }
  uint64_t H =
      (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Lock)) >> 4) *
          0x9E3779B97F4A7C15ull ^
      Ref.ThreadMix;
  const unsigned I = (H >> 32) & (SlotsPerGroup - 1);
  return {Ref.G->Slots[I], Ref.Depth[I]};
}

uint64_t BravoReaderTable::waitForReadersOf(const void *Lock) const {
  uint64_t Drained = 0;
  for (unsigned P = 0; P < Partitions; ++P) {
    std::size_t Used = HighWater[P].load(std::memory_order_acquire);
    const Group *Base = &Groups[static_cast<std::size_t>(P) *
                                GroupsPerPartition];
    for (std::size_t G = 0; G < Used; ++G)
      for (const Slot &S : Base[G].Slots)
        if (S.load(std::memory_order_acquire) == Lock) {
          ++Drained;
          while (S.load(std::memory_order_acquire) == Lock)
            cpuRelax();
        }
  }
  return Drained;
}

uint64_t BravoReaderTable::countReadersOf(const void *Lock) const {
  uint64_t N = 0;
  for (unsigned P = 0; P < Partitions; ++P) {
    std::size_t Used = HighWater[P].load(std::memory_order_acquire);
    const Group *Base = &Groups[static_cast<std::size_t>(P) *
                                GroupsPerPartition];
    for (std::size_t G = 0; G < Used; ++G)
      for (const Slot &S : Base[G].Slots)
        if (S.load(std::memory_order_acquire) == Lock)
          ++N;
  }
  return N;
}

// --- BravoRwLock -----------------------------------------------------------

BravoRwLock::BravoRwLock(RuntimeContext &Ctx, BravoConfig Config)
    : Underlying(Ctx), Config(Config) {}

void BravoRwLock::readLock() {
  BravoReaderTable::ThreadSlot Mine =
      BravoReaderTable::instance().slotFor(this);
  const void *Published = Mine.Publication.load(std::memory_order_relaxed);
  if (Published == this) {
    // Reentrant under an existing biased hold: the published slot already
    // keeps writers out; no second publication needed.
    ++Mine.Depth;
    return;
  }
  // Occupied by another lock means this thread already advertises a
  // *different* lock that collides in its group: that lock's hold, not
  // ours, so this acquisition takes the underlying path.
  if (Published == nullptr && Config.BiasEnabled &&
      RBias.load(std::memory_order_acquire)) {
    SOLERO_CHECK(Mine.Depth == 0,
                 "biased read hold depth without a matching table "
                 "publication");
    Mine.Publication.store(this, std::memory_order_relaxed);
    ++ThreadRegistry::current().Counters.LockWordStores;
    SOLERO_INJECT(BravoReadPublish);
    // Dekker against revokeBias(): our publication must be ordered before
    // the bias recheck, the writer's bias clear before its table scan.
    // Either the writer sees the slot or we see the cleared bias.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (RBias.load(std::memory_order_acquire)) {
      Mine.Depth = 1;
      return;
    }
    // A revocation raced in: withdraw and queue on the underlying lock.
    Mine.Publication.store(nullptr, std::memory_order_release);
  }
  Underlying.readLock();
  maybeReenableBias();
}

void BravoRwLock::readUnlock() {
  BravoReaderTable::ThreadSlot Mine =
      BravoReaderTable::instance().slotFor(this);
  if (Mine.Publication.load(std::memory_order_relaxed) != this) {
    Underlying.readUnlock();
    return;
  }
  SOLERO_CHECK(Mine.Depth > 0,
               "table publication without a biased read hold depth");
  if (--Mine.Depth == 0) {
    // Release: the critical section's reads must be ordered before a
    // revoking writer (which acquire-loads the slot) can proceed.
    Mine.Publication.store(nullptr, std::memory_order_release);
    ++ThreadRegistry::current().Counters.LockWordStores;
  }
}

void BravoRwLock::writeLock() {
  Underlying.writeLock();
  // RBias can only be true on a fresh (non-reentrant) acquisition: readers
  // re-enable it exclusively while holding the underlying read lock, which
  // cannot overlap any write hold.
  if (RBias.load(std::memory_order_acquire))
    revokeBias();
  else if (ForcedDrainPending.load(std::memory_order_acquire) &&
           ForcedDrainPending.exchange(false, std::memory_order_acq_rel))
    // A watchdog forceRevokeBias() cleared the bias without draining:
    // readers published before that clear may still be inside their
    // sections, invisible to the underlying lock. This writer completes
    // the revocation the watchdog could not block on.
    BravoReaderTable::instance().waitForReadersOf(this);
}

void BravoRwLock::writeUnlock() { Underlying.writeUnlock(); }

void BravoRwLock::revokeBias() {
  RBias.store(false, std::memory_order_relaxed);
  SOLERO_INJECT(BravoRevokeScan);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  BravoReaderTable::instance().waitForReadersOf(this);
  // Adaptive self-disabling, counted in reads: bias stays off until this
  // many slow-path reads of this lock have gone by. The refill happens
  // under the write hold, so every slow reader (which counts down under a
  // read hold) sees it.
  SlowReadBudget.store(RearmAfterSlowReads, std::memory_order_relaxed);
  Revocations.fetch_add(1, std::memory_order_relaxed);
}

void BravoRwLock::forceRevokeBias(int64_t InhibitNs) {
  // Deadline first: once RBias drops, any slow-path reader may call
  // maybeReenableBias(), and it must already see the forced window or the
  // forced revocation would bounce straight back.
  if (InhibitNs < 1000)
    InhibitNs = 1000;
  ForcedUntil.store(static_cast<int64_t>(nowNs()) + InhibitNs,
                    std::memory_order_relaxed);
  // Drain flag before the clear: a writer that observes RBias == false
  // must also observe the pending drain (release/acquire pairing on the
  // two flags via the seq_cst exchange below).
  ForcedDrainPending.store(true, std::memory_order_release);
  if (!RBias.exchange(false, std::memory_order_seq_cst))
    return; // already unbiased; the forced window still holds
  // Dekker against the reader's {publish; fence; recheck}: the seq_cst
  // exchange above plays the writer's {clear; fence} role, so a reader
  // that slipped in biased has a publication the deferred drain scan is
  // guaranteed to observe.
  Revocations.fetch_add(1, std::memory_order_relaxed);
}

void BravoRwLock::maybeReenableBias() {
  if (!Config.BiasEnabled || RBias.load(std::memory_order_relaxed))
    return;
  // Downgrade guard: a writer taking its own read lock must not re-enable
  // bias, or a biased reader could enter alongside the held write lock.
  if (Underlying.writeHeldByCurrentThread())
    return;
  // Count down with a plain load and store: a decrement lost to a racing
  // reader only delays the re-arm. The read that spends the last unit (or
  // finds none left) re-arms.
  uint32_t Left = SlowReadBudget.load(std::memory_order_relaxed);
  if (Left != 0) {
    SlowReadBudget.store(--Left, std::memory_order_relaxed);
    if (Left != 0)
      return;
  }
  // Only a forced window is timed, and only a spent budget reads its
  // clock: inside the window the budget refills, past it the window ends.
  int64_t Until = ForcedUntil.load(std::memory_order_relaxed);
  if (Until != 0) {
    if (static_cast<int64_t>(nowNs()) < Until) {
      SlowReadBudget.store(RearmAfterSlowReads, std::memory_order_relaxed);
      return;
    }
    ForcedUntil.store(0, std::memory_order_relaxed);
  }
  RBias.store(true, std::memory_order_release);
}

BravoSnapshot BravoRwLock::snapshot() const {
  BravoSnapshot S;
  S.RBias = RBias.load(std::memory_order_relaxed);
  int64_t Until = ForcedUntil.load(std::memory_order_relaxed);
  if (Until != 0) {
    int64_t Remaining = Until - static_cast<int64_t>(nowNs());
    S.InhibitRemainingNs = Remaining > 0 ? Remaining : 0;
  }
  S.Revocations = Revocations.load(std::memory_order_relaxed);
  return S;
}

bool BravoRwLock::restore(const BravoSnapshot &S) {
  if (readerCount() != 0 || Underlying.writeHeldByCurrentThread())
    return false; // not quiesced: a live hold would race the bias flip
  if (S.InhibitRemainingNs < 0)
    return false; // no transition produces a negative remainder
  Revocations.store(S.Revocations, std::memory_order_relaxed);
  ForcedUntil.store(
      S.InhibitRemainingNs > 0
          ? static_cast<int64_t>(nowNs()) + S.InhibitRemainingNs
          : 0,
      std::memory_order_relaxed);
  // An image captured with bias on restores warm only if this process's
  // config still allows bias; release-ordered like maybeReenableBias so
  // the first biased reader sees fully initialized state.
  RBias.store(S.RBias && Config.BiasEnabled, std::memory_order_release);
  return true;
}

uint32_t BravoRwLock::readerCount() const {
  // Biased readers contribute one per published slot (nested holds on one
  // slot count once); slow-path readers come from the underlying count.
  return Underlying.readerCount() +
         static_cast<uint32_t>(
             BravoReaderTable::instance().countReadersOf(this));
}
