//===- runtime/ThreadRegistry.cpp - Per-thread runtime state --------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadRegistry.h"

#include "support/Assert.h"

using namespace solero;

ThreadRegistry &ThreadRegistry::instance() {
  // Function-local static: initialized on first use, avoiding global
  // constructor ordering issues.
  static ThreadRegistry Registry;
  return Registry;
}

constinit thread_local ThreadState *solero::detail::CurrentThreadState =
    nullptr;

/// RAII holder living in thread-local storage; its destructor runs at
/// thread exit and returns the slot to the registry.
struct ThreadRegistry::Tls {
  ThreadState *TS = nullptr;
  ~Tls() {
    if (TS) {
      detail::CurrentThreadState = nullptr;
      ThreadRegistry::instance().unregisterThread(TS);
    }
  }
};

ThreadState &ThreadRegistry::currentSlow() {
  thread_local Tls Holder;
  if (!Holder.TS) {
    Holder.TS = instance().registerThread();
    detail::CurrentThreadState = Holder.TS;
  }
  return *Holder.TS;
}

ThreadState *ThreadRegistry::registerThread() {
  std::lock_guard<std::mutex> G(Mu);
  uint32_t Slot = 0;
  while (Slot < Live.size() && Live[Slot] != nullptr)
    ++Slot;
  SOLERO_CHECK(Slot < MaxThreads,
               "thread registry full: more than ThreadRegistry::MaxThreads "
               "concurrently live threads (per-slot tables would overflow)");
  if (Slot == Live.size())
    Live.push_back(nullptr);
  auto *TS = new ThreadState();
  TS->Slot = Slot;
  TS->TidBits = (static_cast<uint64_t>(Slot) + 1) << lockword::TidShift;
  Live[Slot] = TS;
  return TS;
}

void ThreadRegistry::unregisterThread(ThreadState *TS) {
  SOLERO_CHECK(TS->readDepth() == 0,
               "thread exited inside a speculative read-only section");
  std::lock_guard<std::mutex> G(Mu);
  Retired += TS->Counters;
  Live[TS->Slot] = nullptr;
  delete TS;
}

ProtocolCounters ThreadRegistry::totalCounters() {
  std::lock_guard<std::mutex> G(Mu);
  ProtocolCounters Sum = Retired;
  for (ThreadState *TS : Live)
    if (TS)
      Sum += TS->Counters;
  return Sum;
}

std::size_t ThreadRegistry::liveThreadCount() {
  std::lock_guard<std::mutex> G(Mu);
  std::size_t N = 0;
  for (ThreadState *TS : Live)
    if (TS)
      ++N;
  return N;
}
