//===- locks/ReadWriteLock.h - Reentrant read-write lock --------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "RWLock" baseline: a java.util.concurrent-style reentrant
/// read-write lock. Multiple readers may hold it concurrently; a writer
/// holds it exclusively; a thread holding write may also acquire read
/// (downgrade pattern).
///
/// Like the library the paper compares against, read acquisition performs
/// an atomic RMW on shared state and the lock lives behind a pointer
/// indirection in the workloads — the two costs the paper cites for RWLock
/// underperforming even plain mutual exclusion on read-mostly
/// microbenchmarks (Section 4.2).
///
/// Each thread's read-hold depth lives on the thread side, in a
/// thread-local list keyed by lock address (the split Compact Java
/// Monitors makes: a small per-object part, the rest on the thread). The
/// lock itself is a few words plus its park mutex and condition
/// variables, with no per-thread storage and no heap.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_LOCKS_READWRITELOCK_H
#define SOLERO_LOCKS_READWRITELOCK_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "support/ScopeExit.h"

namespace solero {

/// Reentrant read-write lock with writer preference (new readers do not
/// barge past a waiting writer, except for reentrant readers, which always
/// succeed to keep lock upgrades deadlock-free in the Java sense).
class ReadWriteLock {
public:
  explicit ReadWriteLock(RuntimeContext &Ctx);

  ReadWriteLock(const ReadWriteLock &) = delete;
  ReadWriteLock &operator=(const ReadWriteLock &) = delete;

  void readLock();
  void readUnlock();
  void writeLock();
  void writeUnlock();

  /// True if the calling thread holds the write lock.
  bool writeHeldByCurrentThread() const;
  /// Number of read holds across all threads.
  uint32_t readerCount() const;

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

  static const char *protocolName() { return "RWLock"; }

private:
  // State layout: bits 0..15 reader count, bits 16..31 writer recursion,
  // bits 32..63 writer owner (ThreadState slot + 1).
  static constexpr uint64_t ReaderMask = 0xffffULL;
  static constexpr uint64_t RecursionUnit = 1ULL << 16;
  static constexpr uint64_t RecursionMask = 0xffffULL << 16;
  static constexpr unsigned OwnerShift = 32;

  static uint64_t ownerOf(uint64_t S) { return S >> OwnerShift; }
  static uint64_t readersOf(uint64_t S) { return S & ReaderMask; }

  uint64_t selfOwner() const;

  RuntimeContext &Ctx;
  std::atomic<uint64_t> State{0};
  std::atomic<uint32_t> WaitingWriters{0};

  std::mutex Mu;
  std::condition_variable ReadersCv;
  std::condition_variable WritersCv;
};

} // namespace solero

#endif // SOLERO_LOCKS_READWRITELOCK_H
