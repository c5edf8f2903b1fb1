//===- tests/ReadWriteLockTest.cpp - RW lock tests ------------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "locks/ReadWriteLock.h"

#include "DeadlockGuard.h"
#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

using namespace solero;

namespace {

class ReadWriteLockTest : public ::testing::Test {
protected:
  ReadWriteLockTest() : Ctx(quietConfig()), L(Ctx) {}
  RuntimeContext Ctx;
  ReadWriteLock L;
};

} // namespace

TEST_F(ReadWriteLockTest, MultipleReadersShareTheLock) {
  L.readLock();
  L.readLock(); // reentrant
  EXPECT_EQ(L.readerCount(), 2u);
  std::thread Other([&] {
    L.readLock();
    EXPECT_EQ(L.readerCount(), 3u);
    L.readUnlock();
  });
  Other.join();
  L.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, WriterIsExclusive) {
  L.writeLock();
  EXPECT_TRUE(L.writeHeldByCurrentThread());
  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    Stage.store(1);
    L.readLock();
    Stage.store(2);
    L.readUnlock();
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Stage.load(), 1); // reader still excluded
  L.writeUnlock();
  Reader.join();
  EXPECT_EQ(Stage.load(), 2);
}

TEST_F(ReadWriteLockTest, WriterWaitsForReaders) {
  L.readLock();
  std::atomic<int> Stage{0};
  std::thread Writer([&] {
    Stage.store(1);
    L.writeLock();
    Stage.store(2);
    L.writeUnlock();
  });
  while (Stage.load() != 1)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Stage.load(), 1);
  L.readUnlock();
  Writer.join();
  EXPECT_EQ(Stage.load(), 2);
}

TEST_F(ReadWriteLockTest, WriteLockIsReentrant) {
  L.writeLock();
  L.writeLock();
  L.writeLock();
  EXPECT_TRUE(L.writeHeldByCurrentThread());
  L.writeUnlock();
  L.writeUnlock();
  EXPECT_TRUE(L.writeHeldByCurrentThread());
  L.writeUnlock();
  EXPECT_FALSE(L.writeHeldByCurrentThread());
}

TEST_F(ReadWriteLockTest, DowngradeWriteToRead) {
  L.writeLock();
  L.readLock(); // allowed while holding write
  L.writeUnlock();
  // Still a reader: writers must wait.
  EXPECT_EQ(L.readerCount(), 1u);
  std::atomic<bool> Acquired{false};
  std::thread Writer([&] {
    L.writeLock();
    Acquired.store(true);
    L.writeUnlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(Acquired.load());
  L.readUnlock();
  Writer.join();
  EXPECT_TRUE(Acquired.load());
}

TEST_F(ReadWriteLockTest, MutualExclusionMixedLoad) {
  constexpr int Threads = 4, Iters = 3000;
  int64_t Data = 0; // protected by write mode
  std::atomic<bool> TornRead{false};
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < Iters; ++I) {
        if (T == 0) {
          L.synchronizedWrite([&] { ++Data; });
        } else {
          int64_t Seen = L.synchronizedReadOnly(
              [&](ReadGuard &) { return Data; });
          if (Seen < 0 || Seen > Iters)
            TornRead.store(true);
        }
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Data, Iters);
  EXPECT_FALSE(TornRead.load());
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, SynchronizedHelpersReleaseOnException) {
  EXPECT_THROW(
      L.synchronizedWrite([&]() -> int { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_FALSE(L.writeHeldByCurrentThread());
  EXPECT_THROW(L.synchronizedReadOnly(
                   [&](ReadGuard &) -> int { throw std::runtime_error("y"); }),
               std::runtime_error);
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, ReaderCountSaturationAborts) {
  // The reader count lives in 16 bits of the packed word; hold 2^16-1 and
  // the next acquisition must abort with a diagnostic instead of silently
  // overflowing into the writer-recursion bits (which would corrupt the
  // writer side and break mutual exclusion).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr uint32_t Max = 0xffff;
  for (uint32_t I = 0; I < Max; ++I)
    L.readLock();
  EXPECT_EQ(L.readerCount(), Max);
  EXPECT_DEATH(L.readLock(), "reader count saturated");
  for (uint32_t I = 0; I < Max; ++I)
    L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, ReadAcquisitionCountsAtomicRmws) {
  // The cost model the paper cites: every read acquisition performs an
  // atomic RMW (unlike SOLERO's elided readers).
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  for (int I = 0; I < 100; ++I)
    L.synchronizedReadOnly([](ReadGuard &) { return 0; });
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_GE(After.AtomicRmws - Before.AtomicRmws, 200u); // lock + unlock
}

TEST_F(ReadWriteLockTest, ReentrantReaderPassesWaitingWriter) {
  // Writer preference parks fresh readers behind a waiting writer, but a
  // thread that already holds a read must pass: the writer waits for that
  // very hold, so parking the reentrant reader would deadlock both.
  L.readLock();
  std::atomic<bool> Acquired{false};
  std::thread Writer([&] {
    L.writeLock();
    Acquired.store(true);
    L.writeUnlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load());
  {
    DeadlockGuard G("reentrant RWLock reader parked behind a waiting writer");
    L.readLock();
  }
  EXPECT_EQ(L.readerCount(), 2u);
  L.readUnlock();
  L.readUnlock();
  Writer.join();
  EXPECT_TRUE(Acquired.load());
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(ReadWriteLockTest, OneThreadHoldsManyLocksReleasedOutOfOrder) {
  // Read holds are kept per thread, keyed by lock: 80 distinct locks held
  // at once (depths 1..3), then released in a scrambled order, must each
  // find their own hold (readUnlock aborts when it finds none) and drain.
  constexpr int N = 80;
  std::vector<std::unique_ptr<ReadWriteLock>> Locks;
  for (int I = 0; I < N; ++I) {
    Locks.push_back(std::make_unique<ReadWriteLock>(Ctx));
    for (int D = 0; D <= I % 3; ++D)
      Locks.back()->readLock();
  }
  for (int K = 0; K < N; ++K) {
    int I = (K * 37) % N; // 37 is coprime with N: visits every lock once
    EXPECT_EQ(Locks[I]->readerCount(), static_cast<uint32_t>(I % 3 + 1));
    for (int D = 0; D <= I % 3; ++D)
      Locks[I]->readUnlock();
    EXPECT_EQ(Locks[I]->readerCount(), 0u);
  }
}

TEST_F(ReadWriteLockTest, ParkedWaitersWakeOnRelease) {
  // With a 10 s park timeout only the releaser's notify can wake a parked
  // waiter in time. writeUnlock notifies only announced parkers, so a
  // parker the gate missed would sleep out the timeout and trip the guard.
  RuntimeConfig C = quietConfig();
  C.ParkMicros = std::chrono::seconds(10);
  RuntimeContext SlowParkCtx(C);
  ReadWriteLock P(SlowParkCtx);

  auto ExpectWokenBy = [&](const char *What, auto Hold, auto Release,
                           auto Acquire) {
    Hold();
    std::atomic<bool> Acquired{false};
    std::thread Waiter([&] {
      Acquire();
      Acquired.store(true);
    });
    // Long enough to exhaust the 64-spin budget and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(Acquired.load()) << What;
    {
      DeadlockGuard G(What, std::chrono::seconds(1));
      Release();
      Waiter.join();
    }
    EXPECT_TRUE(Acquired.load()) << What;
  };

  ExpectWokenBy(
      "reader parked behind a writer missed writeUnlock's wake-up",
      [&] { P.writeLock(); }, [&] { P.writeUnlock(); },
      [&] {
        P.readLock();
        P.readUnlock();
      });
  ExpectWokenBy(
      "writer parked behind a writer missed writeUnlock's wake-up",
      [&] { P.writeLock(); }, [&] { P.writeUnlock(); },
      [&] {
        P.writeLock();
        P.writeUnlock();
      });
  ExpectWokenBy(
      "writer parked behind a reader missed readUnlock's wake-up",
      [&] { P.readLock(); }, [&] { P.readUnlock(); },
      [&] {
        P.writeLock();
        P.writeUnlock();
      });
  EXPECT_EQ(P.readerCount(), 0u);
}
