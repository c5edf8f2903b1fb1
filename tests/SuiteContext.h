//===- tests/SuiteContext.h - One RuntimeContext per test suite -*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A gtest fixture base that gives a test suite one RuntimeContext, made
/// before the suite's first test and destroyed after its last, so no event
/// bus outlives the suite that started it. A bus left running raises every
/// thread's PollFlag in the suites after it, and tests that check that flag
/// exactly then fail at random.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_TESTS_SUITECONTEXT_H
#define SOLERO_TESTS_SUITECONTEXT_H

#include "runtime/RuntimeContext.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

namespace solero {

/// A RuntimeConfig whose zero AsyncEventPeriod starts no event bus, so no
/// async event raises a PollFlag mid-test.
inline RuntimeConfig quietConfig() {
  RuntimeConfig C;
  C.AsyncEventPeriod = std::chrono::microseconds(0);
  return C;
}

template <typename Base = ::testing::Test> class SuiteContext : public Base {
public:
  static RuntimeContext &ctx() { return *Ctx; }

  static void SetUpTestSuite() { start(RuntimeConfig()); }
  static void TearDownTestSuite() { Ctx.reset(); }

protected:
  /// For a fixture's own SetUpTestSuite() that needs another config.
  static void start(RuntimeConfig Config) {
    Ctx = std::make_unique<RuntimeContext>(Config);
  }

private:
  static inline std::unique_ptr<RuntimeContext> Ctx;
};

} // namespace solero

#endif // SOLERO_TESTS_SUITECONTEXT_H
