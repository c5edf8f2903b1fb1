//===- tests/DeadlockGuard.h - Abort instead of hanging ---------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scope guard for tests whose failure mode is a deadlock: if the scope
/// does not finish within the budget, the process aborts with a message
/// naming what hung, instead of stalling the whole suite.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_TESTS_DEADLOCKGUARD_H
#define SOLERO_TESTS_DEADLOCKGUARD_H

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace solero {

class DeadlockGuard {
public:
  explicit DeadlockGuard(const char *What,
                         std::chrono::seconds Budget = std::chrono::seconds(10))
      : Watcher([this, What, Budget] {
          auto Deadline = std::chrono::steady_clock::now() + Budget;
          while (!Done.load(std::memory_order_acquire)) {
            if (std::chrono::steady_clock::now() > Deadline) {
              std::fprintf(stderr, "deadlock: %s\n", What);
              std::abort();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}

  ~DeadlockGuard() {
    Done.store(true, std::memory_order_release);
    Watcher.join();
  }

  DeadlockGuard(const DeadlockGuard &) = delete;
  DeadlockGuard &operator=(const DeadlockGuard &) = delete;

private:
  std::atomic<bool> Done{false};
  std::thread Watcher;
};

} // namespace solero

#endif // SOLERO_TESTS_DEADLOCKGUARD_H
