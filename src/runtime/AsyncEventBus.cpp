//===- runtime/AsyncEventBus.cpp - Asynchronous read-validation events ----===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/AsyncEventBus.h"

#include "runtime/ThreadRegistry.h"

using namespace solero;

void AsyncEventBus::start(std::chrono::microseconds Period) {
  bool Expected = false;
  if (!Running.compare_exchange_strong(Expected, true))
    return;
  // Construct the registry before the ticker that reads it, so that it is
  // destroyed after any static context whose bus is still running at exit.
  ThreadRegistry::instance();
  Worker = std::thread([this, Period] {
    while (Running.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(Period);
      postToAllThreads();
      Ticks.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

void AsyncEventBus::stop() {
  if (!Running.exchange(false))
    return;
  if (Worker.joinable())
    Worker.join();
}

void AsyncEventBus::postToAllThreads() {
  ThreadRegistry::instance().forEachThread([](ThreadState &TS) {
    TS.PollFlag.store(1, std::memory_order_release);
  });
}
