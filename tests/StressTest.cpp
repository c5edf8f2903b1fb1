//===- tests/StressTest.cpp - Protocol stress and failure injection -------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Adversarial configurations: tiny spin tiers so inflation/deflation and
/// FLC parking churn constantly, mixed elision + contention on one lock,
/// and the async-event rescue of an otherwise-unbounded inconsistent-read
/// loop.
///
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"
#include "locks/TasukiLock.h"
#include "runtime/SharedField.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::lockword;

namespace {

/// A context tuned to force the slow paths: one spin round, short parks,
/// fast async events.
RuntimeConfig adversarialConfig() {
  RuntimeConfig C;
  C.Tiers = SpinTiers{4, 2, 1};
  C.ParkMicros = std::chrono::microseconds(100);
  C.AsyncEventPeriod = std::chrono::microseconds(500);
  C.StartEventBus = true;
  return C;
}

} // namespace

TEST(Stress, TasukiInflationChurnKeepsExclusion) {
  RuntimeContext Ctx(adversarialConfig());
  TasukiLock L(Ctx);
  ObjectHeader H;
  constexpr int Threads = 6, Iters = 3000;
  int64_t Plain = 0;
  // Start gate: without it a thread can burn all its iterations before
  // the next one spawns (thread creation is slow under TSan on one
  // vCPU), leaving the lock uncontended and the Inflations expectation
  // below timing-dependent.
  std::atomic<int> Ready{0};
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      Ready.fetch_add(1, std::memory_order_acq_rel);
      while (Ready.load(std::memory_order_acquire) < Threads)
        std::this_thread::yield();
      for (int I = 0; I < Iters; ++I)
        L.synchronizedWrite(H, [&] { ++Plain; });
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Plain, static_cast<int64_t>(Threads) * Iters);
  EXPECT_EQ(H.word().load(), 0u); // fully deflated and released
  ProtocolCounters C = ThreadRegistry::instance().totalCounters();
  EXPECT_GT(C.Inflations, 0u); // tiny tiers guarantee slow-path traffic
}

TEST(Stress, SoleroElisionSurvivesInflationChurn) {
  RuntimeContext Ctx(adversarialConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> A{0}, B{0};
  constexpr int Writers = 3, Readers = 3, Iters = 4000;
  std::atomic<bool> Stop{false};
  std::atomic<bool> Torn{false};
  std::atomic<int> WritersDone{0};
  std::vector<std::thread> Ts;
  for (int W = 0; W < Writers; ++W)
    Ts.emplace_back([&] {
      for (int I = 1; I <= Iters; ++I)
        L.synchronizedWrite(H, [&] {
          int64_t V = A.read() + 1;
          A.write(V);
          B.write(-V);
        });
      if (WritersDone.fetch_add(1) + 1 == Writers)
        Stop.store(true);
    });
  for (int R = 0; R < Readers; ++R)
    Ts.emplace_back([&] {
      while (!Stop.load()) {
        auto P = L.synchronizedReadOnly(H, [&](ReadGuard &) {
          return std::pair<int64_t, int64_t>(A.read(), B.read());
        });
        if (P.first != -P.second)
          Torn.store(true);
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Torn.load());
  EXPECT_EQ(A.read(), static_cast<int64_t>(Writers) * Iters);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST(Stress, ContendedReadersInflateAndRecover) {
  // Readers that hit a held lock go through the Figure 8 slow path, which
  // inflates. The lock must deflate back and speculation must resume.
  RuntimeContext Ctx(adversarialConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> D{0};
  std::atomic<bool> Stop{false};
  // Totals are process-wide: compare against a baseline so only this
  // test's sections count.
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  std::thread Writer([&] {
    for (int I = 0; I < 2000; ++I)
      L.synchronizedWrite(H, [&] {
        D.write(D.read() + 1);
        // Hold briefly so readers reliably observe a held word.
        spinTier1(200);
      });
    Stop.store(true);
  });
  std::vector<std::thread> Readers;
  std::atomic<int64_t> Sum{0};
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      int64_t Local = 0;
      while (!Stop.load())
        Local += L.synchronizedReadOnly(
            H, [&](ReadGuard &) { return D.read(); });
      Sum.fetch_add(Local);
    });
  Writer.join();
  for (auto &T : Readers)
    T.join();
  EXPECT_EQ(D.read(), 2000);
  uint64_t Word = H.word().load();
  EXPECT_TRUE(soleroIsFree(Word)) // deflated after the storm
      << "lock word 0x" << std::hex << Word;
  // Readers may legitimately elide nothing during the storm (each free
  // window can close before validation), so speculation resuming is
  // checked on a section run after it.
  bool Speculative = false;
  int64_t Final = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
    Speculative = G.speculative();
    return D.read();
  });
  EXPECT_EQ(Final, 2000);
  EXPECT_TRUE(Speculative);
  ProtocolCounters C = ThreadRegistry::instance().totalCounters();
  C -= Before;
  EXPECT_GT(C.ElisionSuccesses, 0u);
}

TEST(Stress, AsyncEventsRescueUnboundedInconsistentLoop) {
  // The Section 3.3 scenario: a speculative reader spins on a condition
  // that is only exitable through consistent reads. A concurrent writer
  // invalidates it; only the async event (via checkpoint) can break the
  // loop. With the bus running this must terminate.
  RuntimeConfig Cfg = adversarialConfig();
  RuntimeContext Ctx(Cfg);
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> Gate{0}; // reader loops while Gate is "inconsistent"
  SharedField<int64_t> GateCopy{0};

  std::atomic<bool> ReaderInLoop{false};
  std::thread Reader([&] {
    int64_t R = L.synchronizedReadOnly(H, [&](ReadGuard &G) {
      // Loop until the two gates agree AND are nonzero. Under the stale
      // snapshot (0, 1) this can never happen without a retry.
      for (;;) {
        int64_t A = Gate.read(), B = GateCopy.read();
        if (A != 0 && A == B)
          return A;
        ReaderInLoop.store(true);
        G.checkpoint(); // the paper's async check point
      }
    });
    EXPECT_EQ(R, 7);
  });
  while (!ReaderInLoop.load())
    std::this_thread::yield();
  // Writer makes the pair inconsistent from the reader's stale viewpoint,
  // then consistent; the reader's speculation must abort and retry.
  L.synchronizedWrite(H, [&] {
    Gate.write(7);
    GateCopy.write(7);
  });
  Reader.join();
  ProtocolCounters C = ThreadRegistry::instance().totalCounters();
  EXPECT_GT(C.AsyncAborts + C.ElisionFailures, 0u);
}

TEST(Stress, MixedNestingAcrossManyLocks) {
  RuntimeContext Ctx(adversarialConfig());
  SoleroLock L(Ctx);
  constexpr int NumLocks = 8;
  ObjectHeader H[NumLocks];
  SharedField<int64_t> D[NumLocks];
  constexpr int Threads = 4, Iters = 2000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256StarStar Rng(static_cast<uint64_t>(T) + 99);
      for (int I = 0; I < Iters; ++I) {
        // Acquire locks in ascending index order (deadlock-free), a
        // random mix of read and write modes, nested up to 3 deep.
        int A = static_cast<int>(Rng.nextBounded(NumLocks - 2));
        int B = A + 1 + static_cast<int>(Rng.nextBounded(
                            static_cast<uint64_t>(NumLocks - A - 1)));
        bool WriteOuter = Rng.nextPercent(30);
        bool WriteInner = Rng.nextPercent(30);
        auto Inner = [&] {
          if (WriteInner)
            L.synchronizedWrite(H[B], [&] { D[B].write(D[B].read() + 1); });
          else
            (void)L.synchronizedReadOnly(
                H[B], [&](ReadGuard &) { return D[B].read(); });
        };
        if (WriteOuter)
          L.synchronizedWrite(H[A], [&] {
            D[A].write(D[A].read() + 1);
            Inner();
          });
        else
          L.synchronizedReadOnly(H[A], [&](ReadGuard &) {
            Inner();
            return 0;
          });
      }
    });
  for (auto &T : Ts)
    T.join();
  for (int I = 0; I < NumLocks; ++I)
    EXPECT_TRUE(soleroIsFree(H[I].word().load())) << "lock " << I;
}

TEST(Stress, ReadMostlyUpgradeUnderContention) {
  RuntimeContext Ctx(adversarialConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> Counter{0};
  constexpr int Threads = 4, Iters = 3000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < Iters; ++I)
        L.synchronizedReadMostly(H, [&](WriteIntent &W) {
          int64_t V = Counter.read();
          W.acquireForWrite(); // every section writes: worst case
          // After the upgrade the read is stable; recompute to be exact.
          V = Counter.read();
          Counter.write(V + 1);
        });
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Counter.read(), static_cast<int64_t>(Threads) * Iters);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}

TEST(Stress, WriteInsideReadInsideWriteNesting) {
  RuntimeContext Ctx(adversarialConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> D{0};
  // write { read { write { ... } } } on the same lock, repeatedly.
  for (int I = 0; I < 1000; ++I)
    L.synchronizedWrite(H, [&] {
      int64_t Seen = L.synchronizedReadOnly(H, [&](ReadGuard &) {
        L.synchronizedWrite(H, [&] { D.write(D.read() + 1); });
        return D.read();
      });
      EXPECT_EQ(Seen, I + 1);
    });
  EXPECT_EQ(D.read(), 1000);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}
