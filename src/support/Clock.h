//===- support/Clock.h - Monotonic nanosecond clock -------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one monotonic timestamp source: steady_clock nanoseconds since its
/// epoch. The chaos director and the KV bench both stamp with it, so
/// their timestamps compare.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_SUPPORT_CLOCK_H
#define SOLERO_SUPPORT_CLOCK_H

#include <chrono>
#include <cstdint>

namespace solero {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace solero

#endif // SOLERO_SUPPORT_CLOCK_H
