//===- tests/FlcRaceTest.cpp - FLC lost-wakeup reproduction ---------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Deterministic reproduction of the FLC lost-wakeup release race
/// (DESIGN.md §12): a contender's FLC CAS lands between the releaser's
/// lock-word load and its release, and a blind release store would clobber
/// the bit — the contender then parks with nobody to notify it and stalls
/// for a full timed park. The injection hook stalls the releaser inside
/// exactly that window until the contender's FLC bit is visible, so the
/// adversarial interleaving happens on every run instead of once per many
/// million. With the CAS-release fix the contender is woken promptly; on
/// the unfixed paths these tests time out at ParkMicros.
///
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"
#include "locks/TasukiLock.h"
#include "stress/InjectionPoint.h"
#include "support/Stopwatch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#if defined(SOLERO_INJECTION_POINTS)

using namespace solero;
using namespace solero::lockword;

namespace {

/// Park long enough that a lost wakeup is unmistakable against scheduler
/// noise: fixed paths release in well under WakeupBudget; an unfixed path
/// stalls the contender for the full ParkMicros.
constexpr auto ParkMicros = std::chrono::microseconds(200000); // 200ms
constexpr double WakeupBudgetSeconds = 0.1;

RuntimeConfig raceConfig() {
  RuntimeConfig C;
  C.Tiers = SpinTiers{1, 1, 1}; // exhaust spinning instantly: straight to FLC
  C.ParkMicros = ParkMicros;
  C.AsyncEventPeriod = std::chrono::microseconds(0);
  return C;
}

/// One-shot hook holding the releaser inside a release window (between its
/// lock-word load and the release) until the contender's FLC CAS is
/// visible in the word. WindowOpen tells the contender when to start so
/// its CAS is guaranteed to land inside the window, not before it.
struct ReleaseStall {
  ObjectHeader *H = nullptr;
  inject::Site Window = inject::Site::SoleroExitWriteRelease;
  std::atomic<bool> Armed{true};
  std::atomic<bool> WindowOpen{false};

  static void hook(void *Ctx, inject::Site S) {
    auto *St = static_cast<ReleaseStall *>(Ctx);
    if (St == nullptr || S != St->Window)
      return;
    if (!St->Armed.exchange(false, std::memory_order_acq_rel))
      return;
    St->WindowOpen.store(true, std::memory_order_release);
    Stopwatch W;
    while ((St->H->word().load(std::memory_order_acquire) & FlcBit) == 0 &&
           W.elapsedSeconds() < 5.0)
      std::this_thread::yield();
  }
};

/// Runs \p Release on the main thread with the stall hook armed on
/// \p Window, and \p Contend on a second thread once the window opens.
/// Returns the contender's acquisition latency in seconds.
template <typename ReleaseFn, typename ContendFn>
double raceOnce(ObjectHeader &H, inject::Site Window, ReleaseFn &&Release,
                ContendFn &&Contend) {
  ReleaseStall St;
  St.H = &H;
  St.Window = Window;
  inject::setHook(&ReleaseStall::hook, &St);
  double ContenderSeconds = -1.0;
  std::thread Contender([&] {
    Stopwatch W;
    while (!St.WindowOpen.load(std::memory_order_acquire) &&
           W.elapsedSeconds() < 5.0)
      std::this_thread::yield();
    Stopwatch Acq;
    Contend();
    ContenderSeconds = Acq.elapsedSeconds();
  });
  Release();
  Contender.join();
  inject::setHook(nullptr, nullptr);
  return ContenderSeconds;
}

} // namespace

TEST(FlcRace, SoleroExitWriteNotifiesFlcSetInReleaseWindow) {
  RuntimeContext Ctx(raceConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  ThreadState &TS = ThreadRegistry::current();

  uint64_t V1 = L.enterWrite(H, TS);
  double Latency = raceOnce(
      H, inject::Site::SoleroExitWriteRelease,
      [&] { L.exitWrite(H, TS, V1); },
      [&] { L.synchronizedWrite(H, [] {}); });

  EXPECT_GE(Latency, 0.0) << "contender never saw the release window open";
  EXPECT_LT(Latency, WakeupBudgetSeconds)
      << "contender stalled a full timed park: FLC bit clobbered by the "
         "release (lost wakeup)";
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST(FlcRace, SoleroReadExitNotifiesFlcSetInReleaseWindow) {
  RuntimeContext Ctx(raceConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;

  // Drive the read-fallback holding path: a helper write mid-speculation
  // fails the first attempt, so the engine re-executes while holding the
  // flat lock and releases through slowReadExit's hold_flat_lock leg.
  std::atomic<int> Execs{0};
  double Latency = raceOnce(
      H, inject::Site::SoleroReadExitRelease,
      [&] {
        L.synchronizedReadOnly(H, [&](ReadGuard &G) {
          if (G.speculative() && Execs.fetch_add(1) == 0) {
            std::thread Writer([&] { L.synchronizedWrite(H, [] {}); });
            Writer.join(); // the word changed: this attempt must fail
          }
        });
      },
      [&] { L.synchronizedWrite(H, [] {}); });

  EXPECT_GE(Latency, 0.0) << "read fallback never reached its release window";
  EXPECT_LT(Latency, WakeupBudgetSeconds)
      << "contender stalled a full timed park: FLC bit clobbered by the "
         "read-exit release (lost wakeup)";
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST(FlcRace, TasukiExitNotifiesFlcSetInReleaseWindow) {
  RuntimeContext Ctx(raceConfig());
  TasukiLock L(Ctx);
  ObjectHeader H;

  L.enter(H);
  double Latency = raceOnce(
      H, inject::Site::TasukiExitRelease, [&] { L.exit(H); },
      [&] { L.synchronizedWrite(H, [] {}); });

  EXPECT_GE(Latency, 0.0) << "contender never saw the release window open";
  EXPECT_LT(Latency, WakeupBudgetSeconds)
      << "contender stalled a full timed park: FLC bit clobbered by the "
         "release (lost wakeup)";
  EXPECT_EQ(H.word().load(), 0u);
}

#endif // SOLERO_INJECTION_POINTS
