//===- stress/ChaosDirector.cpp - Seeded fault campaigns ------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "stress/ChaosDirector.h"

#include <chrono>
#include <cstdio>

#include "support/Assert.h"
#include "support/Rng.h"

using namespace solero;
using namespace solero::stress;

const char *solero::stress::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::SlowShard:
    return "SlowShard";
  case FaultKind::ParkStorm:
    return "ParkStorm";
  case FaultKind::WakeupStorm:
    return "WakeupStorm";
  case FaultKind::ClockJump:
    return "ClockJump";
  case FaultKind::CorruptRestore:
    return "CorruptRestore";
  case FaultKind::KindCount:
    break;
  }
  return "?";
}

ChaosDirector::ChaosDirector(ChaosConfig Cfg)
    : Cfg(Cfg), ShardDelay(new std::atomic<uint64_t>[Cfg.Shards]) {
  SOLERO_CHECK(Cfg.Shards > 0, "ChaosDirector needs at least one shard");
  SOLERO_CHECK(Cfg.MinEventNs <= Cfg.MaxEventNs,
               "ChaosDirector event bounds inverted");
  for (unsigned S = 0; S < Cfg.Shards; ++S)
    ShardDelay[S].store(0, std::memory_order_relaxed);

  // The campaign is a pure function of the seed: every kind, offset,
  // duration, and parameter comes from this one integer stream (no
  // floating point, no wall clock), which is what makes the schedule
  // byte-for-byte reproducible across runs and hosts.
  SplitMix64 Rng(Cfg.Seed ^ 0xC4A05E7ull);
  const uint64_t Kinds = static_cast<uint64_t>(FaultKind::KindCount);
  uint64_t T = 0;
  for (;;) {
    // Quiet gap in [MeanGap/2, MeanGap*3/2), then the fault window.
    T += Cfg.MeanGapNs / 2 + Rng.next() % (Cfg.MeanGapNs + 1);
    if (T >= Cfg.DurationNs)
      break;
    FaultKind Kind;
    do {
      Kind = static_cast<FaultKind>(Rng.next() % Kinds);
    } while (((Cfg.KindMask >> static_cast<uint8_t>(Kind)) & 1u) == 0);
    ChaosEvent E;
    E.Kind = Kind;
    E.StartNs = T;
    uint64_t Span = Cfg.MaxEventNs - Cfg.MinEventNs;
    uint64_t Len = Cfg.MinEventNs + (Span ? Rng.next() % (Span + 1) : 0);
    E.Param = 0;
    E.DelayNs = 0;
    switch (Kind) {
    case FaultKind::SlowShard:
      E.Param = Rng.next() % Cfg.Shards;
      E.DelayNs = Cfg.SlowShardDelayNs / 2 +
                  Rng.next() % (Cfg.SlowShardDelayNs + 1);
      break;
    case FaultKind::ClockJump: {
      // Signed skew in [-Max, +Max], stored via two's-complement cast.
      uint64_t Mag = Rng.next() % (Cfg.ClockJumpMaxNs + 1);
      bool Forward = (Rng.next() & 1) != 0;
      E.Param = static_cast<uint64_t>(
          Forward ? static_cast<int64_t>(Mag) : -static_cast<int64_t>(Mag));
      break;
    }
    case FaultKind::CorruptRestore:
      Len = 0; // a point event: attempt the restore, nothing to revert
      E.Param = Rng.next(); // garbage-image seed
      break;
    case FaultKind::ParkStorm:
    case FaultKind::WakeupStorm:
      E.Param = Rng.next(); // perturber decision-stream seed
      break;
    case FaultKind::KindCount:
      break;
    }
    E.EndNs = E.StartNs + Len;
    if (E.EndNs > Cfg.DurationNs)
      E.EndNs = Cfg.DurationNs;
    Schedule.push_back(E);
    T = E.EndNs; // events never overlap: one fault at a time by design
  }
}

ChaosDirector::~ChaosDirector() { stop(); }

std::string ChaosDirector::scheduleString() const {
  std::string Out;
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "chaos schedule: seed=%llu events=%zu duration_ms=%llu\n",
                static_cast<unsigned long long>(Cfg.Seed), Schedule.size(),
                static_cast<unsigned long long>(Cfg.DurationNs / 1000000));
  Out += Line;
  for (const ChaosEvent &E : Schedule) {
    std::snprintf(
        Line, sizeof(Line),
        "  +%8llums %6llums %-14s param=%llu delay_us=%llu\n",
        static_cast<unsigned long long>(E.StartNs / 1000000),
        static_cast<unsigned long long>((E.EndNs - E.StartNs) / 1000000),
        faultKindName(E.Kind), static_cast<unsigned long long>(E.Param),
        static_cast<unsigned long long>(E.DelayNs / 1000));
    Out += Line;
  }
  return Out;
}

void ChaosDirector::start(uint64_t BeginNs) {
  if (Running.exchange(true, std::memory_order_acq_rel))
    return;
  Director = std::thread([this, BeginNs] { run(BeginNs); });
}

void ChaosDirector::stop() {
  Running.store(false, std::memory_order_release);
  if (Director.joinable())
    Director.join();
}

void ChaosDirector::run(uint64_t BeginNs) {
  auto SleepUntil = [this](uint64_t TargetNs) {
    for (;;) {
      if (!Running.load(std::memory_order_acquire))
        return false;
      uint64_t Now = nowNs();
      if (Now >= TargetNs)
        return true;
      uint64_t Gap = TargetNs - Now;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Gap > 2'000'000 ? 2'000'000 : Gap));
    }
  };
  for (const ChaosEvent &E : Schedule) {
    if (!SleepUntil(BeginNs + E.StartNs))
      return;
    apply(E);
    Applied.fetch_add(1, std::memory_order_relaxed);
    bool Full = SleepUntil(BeginNs + E.EndNs);
    revert(E);
    if (!Full)
      return;
  }
}

void ChaosDirector::apply(const ChaosEvent &E) {
  ActiveCount.fetch_add(1, std::memory_order_relaxed);
  switch (E.Kind) {
  case FaultKind::SlowShard:
    ShardDelay[E.Param].store(E.DelayNs, std::memory_order_relaxed);
    break;
  case FaultKind::ParkStorm: {
    // Preemption-heavy noise on every lock-word transition window.
    SchedulePerturber::Options O;
    O.Seed = E.Param;
    O.YieldPercent = 50;
    O.SpinPercent = 30;
    O.SleepPercent = 5;
    O.SpinMax = 2048;
    O.SleepMax = std::chrono::microseconds(150);
    Perturbers.push_back(std::make_unique<SchedulePerturber>(O));
    Perturbers.back()->arm();
    break;
  }
  case FaultKind::WakeupStorm: {
    // Sleep-heavy delays confined to the FLC/park windows: the shape of
    // dropped and delayed wakeups (the paper's §3 fallback pressure).
    SchedulePerturber::Options O;
    O.Seed = E.Param;
    O.YieldPercent = 10;
    O.SpinPercent = 5;
    O.SleepPercent = 60;
    O.SleepMax = std::chrono::microseconds(500);
    O.SiteMask =
        (1u << static_cast<uint32_t>(inject::Site::MonitorFlcSet)) |
        (1u << static_cast<uint32_t>(inject::Site::MonitorPark)) |
        (1u << static_cast<uint32_t>(inject::Site::SoleroSlowExitRelease)) |
        (1u << static_cast<uint32_t>(inject::Site::TasukiSlowExitRelease));
    Perturbers.push_back(std::make_unique<SchedulePerturber>(O));
    Perturbers.back()->arm();
    break;
  }
  case FaultKind::ClockJump:
    ClockSkew.store(static_cast<int64_t>(E.Param),
                    std::memory_order_relaxed);
    break;
  case FaultKind::CorruptRestore:
    if (CorruptRestore)
      CorruptRestore();
    break;
  case FaultKind::KindCount:
    break;
  }
}

void ChaosDirector::revert(const ChaosEvent &E) {
  switch (E.Kind) {
  case FaultKind::SlowShard:
    ShardDelay[E.Param].store(0, std::memory_order_relaxed);
    break;
  case FaultKind::ParkStorm:
  case FaultKind::WakeupStorm:
    // disarm() is safe while workers still fire sites: the injection
    // trampoline tolerates a concurrently nulled hook, and the perturber
    // object itself is retired (not destroyed) until director teardown.
    if (!Perturbers.empty())
      Perturbers.back()->disarm();
    break;
  case FaultKind::ClockJump:
    ClockSkew.store(0, std::memory_order_relaxed);
    break;
  case FaultKind::CorruptRestore:
    break;
  case FaultKind::KindCount:
    break;
  }
  ActiveCount.fetch_sub(1, std::memory_order_relaxed);
}
