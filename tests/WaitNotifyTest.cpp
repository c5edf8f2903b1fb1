//===- tests/WaitNotifyTest.cpp - Object.wait / notify tests --------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "core/SoleroLock.h"
#include "locks/TasukiLock.h"
#include "runtime/SharedField.h"

#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace solero;
using namespace solero::lockword;

namespace {

RuntimeConfig shortParkConfig() {
  RuntimeConfig C = quietConfig();
  C.ParkMicros = std::chrono::microseconds(200);
  return C;
}

} // namespace

TEST(TasukiWaitNotify, ProducerConsumerHandshake) {
  RuntimeContext Ctx(shortParkConfig());
  TasukiLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> Queue{0}; // 0 = empty

  std::thread Consumer([&] {
    for (int Expect = 1; Expect <= 100; ++Expect) {
      L.enter(H);
      while (Queue.read() == 0)
        L.wait(H); // predicate loop: spurious returns are fine
      EXPECT_EQ(Queue.read(), Expect);
      Queue.write(0);
      L.notify(H, /*All=*/true);
      L.exit(H);
    }
  });
  std::thread Producer([&] {
    for (int I = 1; I <= 100; ++I) {
      L.enter(H);
      while (Queue.read() != 0)
        L.wait(H);
      Queue.write(I);
      L.notify(H, /*All=*/true);
      L.exit(H);
    }
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(Queue.read(), 0);
}

TEST(TasukiWaitNotify, WaitReleasesAndReacquires) {
  RuntimeContext Ctx(shortParkConfig());
  TasukiLock L(Ctx);
  ObjectHeader H;
  std::atomic<int> Stage{0};
  std::thread Waiter([&] {
    L.enter(H);
    Stage.store(1);
    while (Stage.load() != 2)
      L.wait(H); // the lock is free while waiting
    EXPECT_TRUE(L.heldByCurrentThread(H)); // reacquired on return
    L.exit(H);
    Stage.store(3);
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  // The waiter holds nothing while asleep: we can take the monitor.
  L.enter(H);
  Stage.store(2);
  L.notify(H, /*All=*/true);
  L.exit(H);
  Waiter.join();
  EXPECT_EQ(Stage.load(), 3);
  EXPECT_EQ(H.word().load(), 0u); // deflated once the wait set drained
}

TEST(TasukiWaitNotify, WaitPreservesRecursion) {
  RuntimeContext Ctx(shortParkConfig());
  TasukiLock L(Ctx);
  ObjectHeader H;
  std::atomic<bool> Notified{false};
  std::thread Waiter([&] {
    L.enter(H);
    L.enter(H);
    L.enter(H); // recursion depth 2 beyond the first
    while (!Notified.load())
      L.wait(H);
    EXPECT_TRUE(L.heldByCurrentThread(H));
    L.exit(H);
    L.exit(H);
    EXPECT_TRUE(L.heldByCurrentThread(H)); // still one hold left
    L.exit(H);
    EXPECT_FALSE(L.heldByCurrentThread(H));
  });
  // Let the waiter park, then notify while holding the monitor.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  L.enter(H);
  Notified.store(true);
  L.notify(H, /*All=*/true);
  L.exit(H);
  Waiter.join();
}

TEST(TasukiWaitNotify, NotifyWithEmptyWaitSetIsNoOp) {
  RuntimeContext Ctx(shortParkConfig());
  TasukiLock L(Ctx);
  ObjectHeader H;
  L.enter(H);
  L.notify(H);
  L.notify(H, /*All=*/true);
  L.exit(H);
  EXPECT_EQ(H.word().load(), 0u); // never inflated
}

TEST(SoleroWaitNotify, HandshakeThroughMonitorHandle) {
  RuntimeContext Ctx(shortParkConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> Box{0};

  std::thread Consumer([&] {
    for (int Expect = 1; Expect <= 50; ++Expect) {
      L.synchronizedWrite(H, [&](SoleroLock::MonitorHandle &M) {
        while (Box.read() == 0)
          M.wait();
        EXPECT_EQ(Box.read(), Expect);
        Box.write(0);
        M.notifyAll();
      });
    }
  });
  std::thread Producer([&] {
    for (int I = 1; I <= 50; ++I) {
      L.synchronizedWrite(H, [&](SoleroLock::MonitorHandle &M) {
        while (Box.read() != 0)
          M.wait();
        Box.write(I);
        M.notifyAll();
      });
    }
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(Box.read(), 0);
}

TEST(SoleroWaitNotify, WaitEpisodeAdvancesCounterForSpanningReaders) {
  // A speculative reader spanning a wait-induced inflate/deflate episode
  // must observe a changed counter (the same Section 3.2 guarantee as for
  // contention-induced inflation).
  RuntimeContext Ctx(shortParkConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  ThreadState &TS = ThreadRegistry::current();
  L.synchronizedWrite(H, [] {}); // counter -> 0x100
  SoleroLock::ReadEntry E = L.readEnter(H, TS);
  ASSERT_FALSE(E.Holding);

  std::atomic<bool> Waiting{false};
  std::thread Waiter([&] {
    L.synchronizedWrite(H, [&](SoleroLock::MonitorHandle &M) {
      Waiting.store(true);
      M.wait(); // returns spuriously after a park tick; that is enough
    });
  });
  Waiter.join();
  // Fully released: deflated with an advanced counter.
  EXPECT_TRUE(soleroIsFree(H.word().load()));
  EXPECT_FALSE(L.validate(H, E.V));
  EXPECT_TRUE(Waiting.load());
}

TEST(SoleroWaitNotify, ElisionResumesAfterWaitEpisode) {
  RuntimeContext Ctx(shortParkConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  std::thread Waiter([&] {
    L.synchronizedWrite(H, [&](SoleroLock::MonitorHandle &M) {
      M.wait(); // spurious return after the park tick
    });
  });
  Waiter.join();
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(L.synchronizedReadOnly(H, [](ReadGuard &) { return 5; }), 5);
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.ElisionSuccesses - Before.ElisionSuccesses, 1u);
}

TEST(SoleroWaitNotify, ManyWaitersAllWake) {
  RuntimeContext Ctx(shortParkConfig());
  SoleroLock L(Ctx);
  ObjectHeader H;
  SharedField<int64_t> Open{0};
  std::atomic<int> Woken{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&] {
      L.synchronizedWrite(H, [&](SoleroLock::MonitorHandle &M) {
        while (Open.read() == 0)
          M.wait();
      });
      Woken.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  L.synchronizedWrite(H, [&](SoleroLock::MonitorHandle &M) {
    Open.write(1);
    M.notifyAll();
  });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Woken.load(), 4);
  EXPECT_TRUE(soleroIsFree(H.word().load()));
}
