//===- runtime/RuntimeContext.h - Process runtime services ------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bundles the runtime services a lock protocol needs — the monitor table,
/// the async event bus, and tuning — the way a JVM instance would own them.
/// Tests and benchmarks create one context per scenario.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_RUNTIME_RUNTIMECONTEXT_H
#define SOLERO_RUNTIME_RUNTIMECONTEXT_H

#include <chrono>

#include "runtime/AsyncEventBus.h"
#include "runtime/MonitorTable.h"
#include "runtime/ThreadRegistry.h"
#include "support/Backoff.h"

namespace solero {

/// Tuning knobs for the locking machinery.
struct RuntimeConfig {
  /// Three-tier spin parameters (paper Figure 3).
  SpinTiers Tiers;
  /// Timed-park duration on the FLC / fat-entry path.
  std::chrono::microseconds ParkMicros{500};
  /// Period of the asynchronous read-validation event (Section 3.3);
  /// 0 disables the background ticker.
  std::chrono::microseconds AsyncEventPeriod{2000};
};

/// Per-"VM" runtime services.
class RuntimeContext {
public:
  explicit RuntimeContext(RuntimeConfig Config = RuntimeConfig())
      : Config(Config) {
    if (Config.AsyncEventPeriod.count() > 0)
      Bus.start(Config.AsyncEventPeriod);
  }

  ~RuntimeContext() { Bus.stop(); }

  RuntimeContext(const RuntimeContext &) = delete;
  RuntimeContext &operator=(const RuntimeContext &) = delete;

  MonitorTable &monitors() { return Monitors; }
  AsyncEventBus &eventBus() { return Bus; }
  const RuntimeConfig &config() const { return Config; }

  /// Aggregated protocol counters across all threads (process-wide; use
  /// snapshot deltas to attribute them to a measurement window).
  ProtocolCounters counters() {
    return ThreadRegistry::instance().totalCounters();
  }

private:
  RuntimeConfig Config;
  MonitorTable Monitors;
  AsyncEventBus Bus;
};

} // namespace solero

#endif // SOLERO_RUNTIME_RUNTIMECONTEXT_H
