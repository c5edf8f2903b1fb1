//===- runtime/ReadGuard.h - Speculative-section guard ----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guard handed to read-only critical sections and the asynchronous
/// check-point function (paper Section 3.3). The paper's JIT inserts check
/// points at method entries and loop back-edges; here, hand-written guest
/// code calls speculationCheckpoint() inside its loops (the collections in
/// src/collections do), and the CSIR interpreter inserts the calls
/// automatically at back-edges.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_RUNTIME_READGUARD_H
#define SOLERO_RUNTIME_READGUARD_H

#include <atomic>

#include "runtime/SpeculationFault.h"
#include "runtime/ThreadRegistry.h"

namespace solero {

/// Validates the read consistency of every speculative read-only section
/// the calling thread is inside, but only when the async event bus has
/// raised this thread's poll flag since the last check point. On a failed
/// validation, throws SpeculationFault carrying the outermost invalidated
/// frame; the owning elision frame catches it and retries. Cheap (one
/// relaxed load) when no event is pending; safe to call from any thread at
/// any time, including threads with no speculation in flight.
inline void speculationCheckpoint() {
  ThreadState &TS = ThreadRegistry::current();
  if (TS.PollFlag.load(std::memory_order_relaxed) == 0)
    return;
  TS.PollFlag.store(0, std::memory_order_relaxed);
  for (std::size_t I = 0, E = TS.readDepth(); I < E; ++I) {
    const ReadRecord &Rec = TS.readRecord(I);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (Rec.Header->word().load(std::memory_order_relaxed) != Rec.Value) {
      ++TS.Counters.AsyncAborts;
      throw SpeculationFault{I};
    }
  }
}

/// Unconditionally validates every in-flight speculative section of the
/// calling thread, regardless of the poll flag. Cheap no-op for threads
/// with no speculation in flight.
inline void validateAllSpeculativeReads() {
  ThreadState &TS = ThreadRegistry::current();
  for (std::size_t I = 0, E = TS.readDepth(); I < E; ++I) {
    const ReadRecord &Rec = TS.readRecord(I);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (Rec.Header->word().load(std::memory_order_relaxed) != Rec.Value) {
      ++TS.Counters.AsyncAborts;
      throw SpeculationFault{I};
    }
  }
}

/// Loop-bound helper for guest data-structure traversals. Call once per
/// iteration with a caller-owned step counter (or once per block of
/// \p Iterations iterations, a divisor of 4096): it polls the async event,
/// and every 4096 steps force-validates all in-flight speculation. This is
/// the safety net that bounds traversals chasing inconsistent pointers
/// even when the async event bus is disabled; a non-speculative traversal
/// passes through unharmed no matter how long it runs.
inline void speculationLoopGuard(uint32_t &Steps, uint32_t Iterations = 1) {
  speculationCheckpoint();
  if ((Steps += Iterations) >= 4096) {
    Steps = 0;
    validateAllSpeculativeReads();
  }
}

/// Handle passed to a read-only critical section body. Reports whether the
/// current execution is speculative and forwards check points.
class ReadGuard {
public:
  explicit ReadGuard(bool Speculative) : Speculative(Speculative) {}

  /// True while executing optimistically (lock not held). Guest code can
  /// use this to skip speculation-unsafe work, though well-formed read-only
  /// sections never need to.
  bool speculative() const { return Speculative; }

  /// Async check point; see speculationCheckpoint().
  void checkpoint() const { speculationCheckpoint(); }

private:
  bool Speculative;
};

} // namespace solero

#endif // SOLERO_RUNTIME_READGUARD_H
