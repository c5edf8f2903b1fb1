//===- locks/ReadWriteLock.cpp - Reentrant read-write lock ----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "locks/ReadWriteLock.h"

#include "support/Assert.h"
#include "support/Backoff.h"

#include <vector>

using namespace solero;

namespace {

/// One lock's read-hold depth on the calling thread.
struct ReadHold {
  const ReadWriteLock *Lock;
  uint32_t Depth;
};

/// The calling thread's read holds on every ReadWriteLock, keyed by lock
/// address; an entry leaves when its depth reaches zero. Only the owning
/// thread touches it, so counting a hold writes no line another thread's
/// holds share, and a lock carries no per-thread storage. A thread holds
/// few locks at once, so a linear scan finds the entry.
thread_local std::vector<ReadHold> Holds;

ReadHold *holdOn(const ReadWriteLock *L) {
  for (ReadHold &H : Holds)
    if (H.Lock == L)
      return &H;
  return nullptr;
}

} // namespace

ReadWriteLock::ReadWriteLock(RuntimeContext &Ctx) : Ctx(Ctx) {}

uint64_t ReadWriteLock::selfOwner() const {
  return static_cast<uint64_t>(ThreadRegistry::current().slot()) + 1;
}

void ReadWriteLock::readLock() {
  ThreadState &TS = ThreadRegistry::current();
  uint64_t Self = selfOwner();
  ReadHold *Held = holdOn(this);
  for (int Spin = 0;; ++Spin) {
    uint64_t S = State.load(std::memory_order_relaxed);
    bool OwnWrite = ownerOf(S) == Self;
    bool Reentrant = Held != nullptr;
    bool WriterBlocked = ownerOf(S) != 0 && !OwnWrite;
    bool WriterGate = WaitingWriters.load(std::memory_order_relaxed) != 0 &&
                      !OwnWrite && !Reentrant;
    if (!WriterBlocked && !WriterGate) {
      SOLERO_CHECK(readersOf(S) != ReaderMask,
                   "reader count saturated: 2^16-1 concurrent read holds "
                   "would overflow into the writer-recursion bits");
      ++TS.Counters.AtomicRmws;
      if (State.compare_exchange_weak(S, S + 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        if (Held)
          ++Held->Depth;
        else
          Holds.push_back({this, 1});
        return;
      }
      continue;
    }
    if (Spin < 64) {
      cpuRelax();
      continue;
    }
    // Park until the writer side drains.
    std::unique_lock<std::mutex> L(Mu);
    ReadersCv.wait_for(L, Ctx.config().ParkMicros);
    Spin = 0;
  }
}

void ReadWriteLock::readUnlock() {
  ThreadState &TS = ThreadRegistry::current();
  ReadHold *Held = holdOn(this);
  SOLERO_CHECK(Held != nullptr, "readUnlock without a read hold");
  if (--Held->Depth == 0) {
    *Held = Holds.back();
    Holds.pop_back();
  }
  ++TS.Counters.AtomicRmws;
  uint64_t Prev = State.fetch_sub(1, std::memory_order_release);
  SOLERO_CHECK(readersOf(Prev) != 0,
               "readUnlock underflowed the shared reader count");
  if (readersOf(Prev) == 1 &&
      WaitingWriters.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> L(Mu);
    WritersCv.notify_all();
  }
}

void ReadWriteLock::writeLock() {
  ThreadState &TS = ThreadRegistry::current();
  uint64_t Self = selfOwner();
  uint64_t S = State.load(std::memory_order_relaxed);
  if (ownerOf(S) == Self) {
    // Reentrant: only this thread mutates the writer fields while it owns
    // the lock, but parked readers may be CASing concurrently, so RMW.
    SOLERO_CHECK((S & RecursionMask) != RecursionMask,
                 "write recursion overflow");
    ++TS.Counters.AtomicRmws;
    State.fetch_add(RecursionUnit, std::memory_order_relaxed);
    return;
  }
  if (S == 0) {
    ++TS.Counters.AtomicRmws;
    if (State.compare_exchange_strong(S, Self << OwnerShift,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed))
      return;
  }
  // Contended: announce, then spin/park until the state drains to zero.
  WaitingWriters.fetch_add(1, std::memory_order_acq_rel);
  for (int Spin = 0;; ++Spin) {
    S = State.load(std::memory_order_relaxed);
    if (S == 0) {
      ++TS.Counters.AtomicRmws;
      if (State.compare_exchange_weak(S, Self << OwnerShift,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        WaitingWriters.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
      continue;
    }
    if (Spin < 64) {
      cpuRelax();
      continue;
    }
    std::unique_lock<std::mutex> L(Mu);
    WritersCv.wait_for(L, Ctx.config().ParkMicros);
    Spin = 0;
  }
}

void ReadWriteLock::writeUnlock() {
  ThreadState &TS = ThreadRegistry::current();
  uint64_t S = State.load(std::memory_order_relaxed);
  SOLERO_CHECK(ownerOf(S) == selfOwner(), "writeUnlock by non-owner");
  if ((S & RecursionMask) != 0) {
    ++TS.Counters.AtomicRmws;
    State.fetch_sub(RecursionUnit, std::memory_order_relaxed);
    return;
  }
  // Clear the writer fields, keeping any read holds this thread took while
  // owning write (downgrade). Racing reader CASes can only succeed once the
  // writer fields are zero, so computing the new value from S is safe.
  ++TS.Counters.AtomicRmws;
  uint64_t Expected = S;
  bool Ok = State.compare_exchange_strong(Expected, S & ReaderMask,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed);
  SOLERO_CHECK(Ok, "write-held state changed by another thread");
  std::lock_guard<std::mutex> L(Mu);
  ReadersCv.notify_all();
  WritersCv.notify_all();
}

bool ReadWriteLock::writeHeldByCurrentThread() const {
  return ownerOf(State.load(std::memory_order_relaxed)) == selfOwner();
}

uint32_t ReadWriteLock::readerCount() const {
  return static_cast<uint32_t>(
      readersOf(State.load(std::memory_order_relaxed)));
}
