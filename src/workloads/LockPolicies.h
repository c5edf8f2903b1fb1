//===- workloads/LockPolicies.h - Uniform lock policy adapters --*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three lock implementations the paper compares (Section 4.1) behind
/// one policy shape, so workloads and SynchronizedMap can be templated
/// over them:
///
///   Lock    — TasukiPolicy:  the conventional mutual-exclusion lock
///   RWLock  — RwPolicy:      java.util.concurrent-style read-write lock
///   SOLERO  — SoleroPolicy:  lock elision for read-only sections
///
/// plus SoleroPolicy variants for the Figure 10 ablations (Unelided,
/// WeakBarrier). A policy instance is one lock: construct one per
/// protected object. Every policy reports `released()`, the quiescent
/// final-state check the torture harness (stress/TortureRunner.cpp) and
/// the KV oracle (stress/KvOracle.h) assert after a run.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_WORKLOADS_LOCKPOLICIES_H
#define SOLERO_WORKLOADS_LOCKPOLICIES_H

#include <memory>
#include <utility>

#include "core/SoleroLock.h"
#include "locks/BravoRwLock.h"
#include "locks/ReadWriteLock.h"
#include "locks/SeqLock.h"
#include "locks/TasukiLock.h"
#include "runtime/ReadGuard.h"
#include "runtime/RuntimeContext.h"
#include "support/ScopeExit.h"

namespace solero {

/// Conventional lock (paper's "Lock"): mutual exclusion for readers too.
class TasukiPolicy {
public:
  explicit TasukiPolicy(RuntimeContext &Ctx) : Protocol(Ctx) {}

  template <typename Fn> decltype(auto) read(Fn &&F) {
    return Protocol.synchronizedReadOnly(Header, std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) write(Fn &&F) {
    return Protocol.synchronizedWrite(Header, std::forward<Fn>(F));
  }

  static const char *name() { return "Lock"; }

  /// True when the lock word is back to unlocked and uninflated.
  bool released() const {
    return Header.word().load(std::memory_order_relaxed) == 0;
  }

private:
  TasukiLock Protocol;
  ObjectHeader Header;
};

/// Read-write lock (paper's "RWLock"). Held behind a pointer to model the
/// java.util.concurrent indirection the paper cites.
class RwPolicy {
public:
  explicit RwPolicy(RuntimeContext &Ctx)
      : Lock(std::make_unique<ReadWriteLock>(Ctx)) {}

  template <typename Fn> decltype(auto) read(Fn &&F) {
    return Lock->synchronizedReadOnly(std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) write(Fn &&F) {
    return Lock->synchronizedWrite(std::forward<Fn>(F));
  }

  static const char *name() { return "RWLock"; }

  /// True when no reader indication is left behind.
  bool released() const { return Lock->readerCount() == 0; }

private:
  std::unique_ptr<ReadWriteLock> Lock;
};

/// BRAVO-biased read-write lock (locks/BravoRwLock.h): the state-of-the-art
/// reader path SOLERO is judged against on the scaling curves. Same
/// pointer indirection as RwPolicy so the comparison isolates the reader
/// indication mechanism, not the memory layout.
class BravoRwPolicy {
public:
  explicit BravoRwPolicy(RuntimeContext &Ctx,
                         BravoConfig Config = BravoConfig())
      : Lock(std::make_unique<BravoRwLock>(Ctx, Config)) {}

  template <typename Fn> decltype(auto) read(Fn &&F) {
    return Lock->synchronizedReadOnly(std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) write(Fn &&F) {
    return Lock->synchronizedWrite(std::forward<Fn>(F));
  }

  static const char *name() { return "BravoRW"; }

  /// True when no reader indication is left behind in either layer: the
  /// biased visible-readers slots and the underlying centralized count.
  bool released() const { return Lock->readerCount() == 0; }

  BravoRwLock &protocol() { return *Lock; }

private:
  std::unique_ptr<BravoRwLock> Lock;
};

/// SOLERO with configurable elision / barriers.
class SoleroPolicy {
public:
  explicit SoleroPolicy(RuntimeContext &Ctx,
                        SoleroConfig Config = SoleroConfig())
      : Protocol(Ctx, Config) {}

  template <typename Fn> decltype(auto) read(Fn &&F) {
    return Protocol.synchronizedReadOnly(Header, std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) write(Fn &&F) {
    return Protocol.synchronizedWrite(Header, std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) readMostly(Fn &&F) {
    return Protocol.synchronizedReadMostly(Header, std::forward<Fn>(F));
  }

  static const char *name() { return "SOLERO"; }

  /// True when the lock word is free (released and deflated).
  bool released() const {
    return lockword::soleroIsFree(
        Header.word().load(std::memory_order_relaxed));
  }

  SoleroLock &protocol() { return Protocol; }

private:
  SoleroLock Protocol;
  ObjectHeader Header;
};

/// Bare-seqlock policy (locks/SeqLock.h): readers run optimistically and
/// retry on interference, writers serialize on the sequence word itself.
/// This is the hand-tuned upper bound for read-mostly workloads — no
/// reader-side RMW, no lock-word store, no elision bookkeeping — at the
/// cost of the seqlock restrictions SOLERO exists to lift: the read
/// section must be side-effect-free and safe to re-execute, and writers
/// get a plain spinlock with no contention management. The KV service
/// bench runs it as the per-shard read-path ceiling; it takes (and
/// ignores) a RuntimeContext so it constructs like the other policies.
///
/// A read section that throws is treated the way the elision engine
/// treats it (paper Section 3.3): the exception escapes only when the
/// snapshot it was computed from is consistent; otherwise the section
/// re-executes.
class SeqLockPolicy {
public:
  explicit SeqLockPolicy(RuntimeContext &) {}

  template <typename Fn> auto read(Fn &&F) {
    for (;;) {
      uint64_t V = Lock.readBegin();
      try {
        ReadGuard G(/*Speculative=*/true);
        auto R = F(G);
        if (!Lock.readRetry(V))
          return R;
      } catch (...) {
        if (!Lock.readRetry(V))
          throw;
      }
    }
  }

  template <typename Fn> decltype(auto) write(Fn &&F) {
    Lock.writeLock();
    ScopeExit Release([this] { Lock.writeUnlock(); });
    return F();
  }

  static const char *name() { return "SeqLock"; }

  /// True when no writer holds the sequence word (the counter is even).
  bool released() const { return (Lock.value() & 1) == 0; }

  SeqLock &protocol() { return Lock; }

private:
  SeqLock Lock;
};

/// Figure 10 ablation configs.
inline SoleroConfig unelidedSoleroConfig() {
  SoleroConfig C;
  C.ElideReadOnly = false;
  return C;
}

inline SoleroConfig weakBarrierSoleroConfig() {
  SoleroConfig C;
  C.Barriers = BarrierMode::Weak;
  return C;
}

/// SOLERO with the adaptive elision controller on (default thresholds;
/// see core/ElisionController.h).
inline SoleroConfig adaptiveSoleroConfig() {
  SoleroConfig C;
  C.Adaptive.Enabled = true;
  return C;
}

/// Adaptive-SOLERO: the failure-ratio-driven controller decides per lock
/// whether read-only sections speculate (the fig15 --adaptive competitor).
class AdaptiveSoleroPolicy {
public:
  explicit AdaptiveSoleroPolicy(RuntimeContext &Ctx,
                                SoleroConfig Config = adaptiveSoleroConfig())
      : Inner(Ctx, Config) {}

  template <typename Fn> decltype(auto) read(Fn &&F) {
    return Inner.read(std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) write(Fn &&F) {
    return Inner.write(std::forward<Fn>(F));
  }
  template <typename Fn> decltype(auto) readMostly(Fn &&F) {
    return Inner.readMostly(std::forward<Fn>(F));
  }

  static const char *name() { return "Adaptive-SOLERO"; }

  bool released() const { return Inner.released(); }

  SoleroLock &protocol() { return Inner.protocol(); }

private:
  SoleroPolicy Inner;
};

} // namespace solero

#endif // SOLERO_WORKLOADS_LOCKPOLICIES_H
