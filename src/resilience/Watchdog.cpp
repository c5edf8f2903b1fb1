//===- resilience/Watchdog.cpp - Stuck-speculation watchdog ---------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "resilience/Watchdog.h"

#include <chrono>
#include <cstdio>

#include "core/ElisionController.h"
#include "locks/BravoRwLock.h"
#include "support/Clock.h"

using namespace solero;
using namespace solero::resilience;

const char *solero::resilience::pathologyKindName(PathologyKind K) {
  switch (K) {
  case PathologyKind::StalledSection:
    return "StalledSection";
  case PathologyKind::ElisionFailureStorm:
    return "ElisionFailureStorm";
  case PathologyKind::BiasRevocationLivelock:
    return "BiasRevocationLivelock";
  }
  return "?";
}

std::string ResilienceDiagnostic::render() const {
  char Buf[256];
  switch (Kind) {
  case PathologyKind::StalledSection:
    std::snprintf(Buf, sizeof(Buf),
                  "watchdog: StalledSection (slot %d in flight %.1f ms)",
                  Slot, static_cast<double>(ObservedNs) * 1e-6);
    break;
  case PathologyKind::ElisionFailureStorm:
    std::snprintf(Buf, sizeof(Buf),
                  "watchdog: ElisionFailureStorm (%llu failures in one poll)",
                  static_cast<unsigned long long>(ObservedNs));
    break;
  case PathologyKind::BiasRevocationLivelock:
    std::snprintf(
        Buf, sizeof(Buf),
        "watchdog: BiasRevocationLivelock (%llu revocations in one poll)",
        static_cast<unsigned long long>(ObservedNs));
    break;
  }
  char Out[384];
  std::snprintf(Out, sizeof(Out),
                "%s -> forced %u controller(s) Disabled, %u bias(es) "
                "revoked; traffic continues on the flat path",
                Buf, ForcedDisables, ForcedRevocations);
  return Out;
}

SpeculationWatchdog::SpeculationWatchdog(WatchdogConfig Cfg)
    : Cfg(Cfg), Ops(new OpCell[ThreadRegistry::MaxThreads]),
      Reported(new uint64_t[ThreadRegistry::MaxThreads]()) {}

SpeculationWatchdog::~SpeculationWatchdog() { stop(); }

void SpeculationWatchdog::watchController(ElisionController *C) {
  Controllers.push_back(C);
}

void SpeculationWatchdog::watchBravo(BravoRwLock *L) {
  Bravos.push_back({L, L->revocations()});
}

void SpeculationWatchdog::start() {
  if (Running.exchange(true, std::memory_order_acq_rel))
    return;
  Monitor = std::thread([this] {
    while (Running.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Cfg.PollPeriodNs));
      if (!Running.load(std::memory_order_acquire))
        break;
      pollOnce(nowNs());
    }
  });
}

void SpeculationWatchdog::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  if (Monitor.joinable())
    Monitor.join();
}

void SpeculationWatchdog::pollOnce(uint64_t NowNs) {
  Polls.fetch_add(1, std::memory_order_relaxed);

  // 1. Stalled sections: any op older than the bound, reported once per
  // distinct start timestamp (a section stuck across many polls is one
  // pathology, not one per poll).
  for (uint32_t S = 0; S < ThreadRegistry::MaxThreads; ++S) {
    uint64_t Start = Ops[S].StartNs.load(std::memory_order_relaxed);
    if (Start == 0 || NowNs <= Start || NowNs - Start < Cfg.StallBoundNs)
      continue;
    if (Reported[S] == Start)
      continue;
    Reported[S] = Start;
    Stalls.fetch_add(1, std::memory_order_relaxed);
    ResilienceDiagnostic D;
    D.Kind = PathologyKind::StalledSection;
    D.DetectedAtNs = NowNs;
    D.ObservedNs = NowNs - Start;
    D.Slot = static_cast<int>(S);
    forceRecovery(D);
  }

  // 2. Elision failure storm: process-wide counter deltas. The first poll
  // only establishes the baseline.
  ProtocolCounters Total = ThreadRegistry::instance().totalCounters();
  uint64_t Attempts = Total.ElisionAttempts.value();
  uint64_t Failures = Total.ElisionFailures.value();
  if (HaveBaseline) {
    uint64_t DeltaA = Attempts - LastAttempts;
    uint64_t DeltaF = Failures - LastFailures;
    if (DeltaF >= Cfg.StormFailures && DeltaA > 0 &&
        static_cast<double>(DeltaF) / static_cast<double>(DeltaA) >=
            Cfg.StormRatio) {
      Storms.fetch_add(1, std::memory_order_relaxed);
      ResilienceDiagnostic D;
      D.Kind = PathologyKind::ElisionFailureStorm;
      D.DetectedAtNs = NowNs;
      D.ObservedNs = DeltaF;
      forceRecovery(D);
    }
  }
  LastAttempts = Attempts;
  LastFailures = Failures;
  HaveBaseline = true;

  // 3. BRAVO revocation livelock: a lock that revoked heavily this poll
  // and is biased *again* is ping-ponging — each revocation's measured
  // cost looks too cheap for the lock's own inhibit window to bite.
  for (BravoWatch &W : Bravos) {
    uint64_t Rev = W.Lock->revocations();
    uint64_t Delta = Rev - W.LastRevocations;
    W.LastRevocations = Rev;
    if (Delta >= Cfg.RevocationsPerPoll && W.Lock->readBiased()) {
      RevStorms.fetch_add(1, std::memory_order_relaxed);
      ResilienceDiagnostic D;
      D.Kind = PathologyKind::BiasRevocationLivelock;
      D.DetectedAtNs = NowNs;
      D.ObservedNs = Delta;
      forceRecovery(D);
    }
  }
}

void SpeculationWatchdog::forceRecovery(ResilienceDiagnostic D) {
  for (ElisionController *C : Controllers) {
    C->forceDisable();
    ++D.ForcedDisables;
  }
  for (BravoWatch &W : Bravos) {
    W.Lock->forceRevokeBias(Cfg.BiasInhibitNs);
    ++D.ForcedRevocations;
  }
  Disables.fetch_add(D.ForcedDisables, std::memory_order_relaxed);
  Revokes.fetch_add(D.ForcedRevocations, std::memory_order_relaxed);
  std::lock_guard<std::mutex> G(DiagMutex);
  if (Diags.size() >= Cfg.MaxDiagnostics)
    Diags.erase(Diags.begin());
  Diags.push_back(D);
}

SpeculationWatchdog::Stats SpeculationWatchdog::stats() const {
  Stats S;
  S.Polls = Polls.load(std::memory_order_relaxed);
  S.StallsDetected = Stalls.load(std::memory_order_relaxed);
  S.FailureStorms = Storms.load(std::memory_order_relaxed);
  S.RevocationStorms = RevStorms.load(std::memory_order_relaxed);
  S.ForcedDisables = Disables.load(std::memory_order_relaxed);
  S.ForcedRevocations = Revokes.load(std::memory_order_relaxed);
  return S;
}

std::vector<ResilienceDiagnostic> SpeculationWatchdog::diagnostics() const {
  std::lock_guard<std::mutex> G(DiagMutex);
  return Diags;
}
