//===- tests/BravoRwLockTest.cpp - BRAVO biased RW lock tests -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The BRAVO layer's contract on top of ReadWriteLock: same reentrancy and
/// downgrade semantics in every bias state, writer revocation that really
/// waits out published readers, the slow-read re-arm policy, and the cost
/// model (biased reads perform no shared-state RMW).
///
//===----------------------------------------------------------------------===//

#include "locks/BravoRwLock.h"

#include "DeadlockGuard.h"
#include "SuiteContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

using namespace solero;

namespace {

/// Takes a read on \p Lock, lets a writer start waiting for it, then
/// takes a nested read that must pass the waiting writer (it waits for
/// this very hold, so parking the nested read would deadlock both).
void expectReentrantReadPassesWaitingWriter(BravoRwLock &Lock) {
  Lock.readLock();
  std::atomic<bool> Acquired{false};
  std::thread Writer([&] {
    Lock.writeLock();
    Acquired.store(true);
    Lock.writeUnlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load());
  {
    DeadlockGuard G("reentrant BravoRW reader parked behind a waiting writer");
    Lock.readLock();
  }
  Lock.readUnlock();
  Lock.readUnlock();
  Writer.join();
  EXPECT_TRUE(Acquired.load());
  EXPECT_EQ(Lock.readerCount(), 0u);
}

class BravoRwLockTest : public ::testing::Test {
protected:
  BravoRwLockTest() : Ctx(quietConfig()), L(Ctx) {}

  /// Bias starts false and is enabled on the reader slow path; one
  /// read/unlock round trip arms the fast path for everything after.
  void armBias() {
    L.readLock();
    L.readUnlock();
    ASSERT_TRUE(L.readBiased());
  }

  RuntimeContext Ctx;
  BravoRwLock L;
};

} // namespace

TEST_F(BravoRwLockTest, ReaderReentrancyAcrossBiasStates) {
  // First acquisition takes the underlying (unbiased) path and enables the
  // bias; the nested one lands on the biased fast path. Both unwind.
  EXPECT_FALSE(L.readBiased());
  L.readLock();
  EXPECT_TRUE(L.readBiased());
  L.readLock(); // nested: biased publication under an underlying hold
  EXPECT_EQ(L.readerCount(), 2u);
  L.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);

  // Now fully biased: nesting stays on the fast path under the single
  // publication, which counts once.
  L.readLock();
  L.readLock();
  L.readLock();
  EXPECT_EQ(L.readerCount(), 1u);
  L.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 1u);
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, WriterRevokesBiasAndWaitsOutPublishedReaders) {
  armBias();
  L.readLock(); // biased publication in the visible-readers table
  EXPECT_EQ(L.readerCount(), 1u);

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
  // The writer cleared the bias but must still be draining our slot.
  EXPECT_EQ(Stage.load(), 1);
  EXPECT_FALSE(L.readBiased());
  L.readUnlock();
  Writer.join();
  EXPECT_EQ(Stage.load(), 2);
  EXPECT_GE(L.revocations(), 1u);
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, DowngradeWriteToRead) {
  armBias();
  L.writeLock(); // revokes the bias
  EXPECT_FALSE(L.readBiased());
  L.readLock(); // downgrade read: must not re-enable bias while write held
  EXPECT_FALSE(L.readBiased());
  L.writeUnlock();
  // Still a reader: a competing writer has to wait for us.
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
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, WriteStormKeepsBiasDisabled) {
  // Only slow-path reads re-arm the bias, so a pure write storm pays the
  // table scan once and then runs at plain-RWLock speed.
  armBias();
  for (int I = 0; I < 200; ++I) {
    L.writeLock();
    L.writeUnlock();
  }
  EXPECT_EQ(L.revocations(), 1u);
  EXPECT_FALSE(L.readBiased());

  // Alternating write and read: a revocation leaves bias off for 16 slow
  // reads, so at most one write in 16 pays the scan.
  BravoRwLock Mixed(Ctx);
  Mixed.readLock();
  Mixed.readUnlock();
  ASSERT_TRUE(Mixed.readBiased());
  for (int I = 0; I < 200; ++I) {
    Mixed.writeLock();
    Mixed.writeUnlock();
    Mixed.readLock();
    Mixed.readUnlock();
  }
  EXPECT_GT(Mixed.revocations(), 1u); // the bias does come back
  EXPECT_LE(Mixed.revocations(), (200u + 15) / 16);
}

TEST_F(BravoRwLockTest, BiasReArmsOnSixteenthSlowReadOfTheSameLock) {
  // Other never biases, so its reads take the slow path throughout; they
  // run on this thread between L's, and must not spend L's budget.
  BravoRwLock Other(Ctx, BravoConfig{.BiasEnabled = false});
  armBias();
  for (uint64_t Round = 1; Round <= 2; ++Round) {
    L.writeLock(); // revokes: bias off for the next 16 slow reads
    L.writeUnlock();
    ASSERT_EQ(L.revocations(), Round);
    for (int I = 1; I <= 15; ++I) {
      L.readLock();
      L.readUnlock();
      EXPECT_FALSE(L.readBiased()) << "re-armed after slow read " << I;
      for (int J = 0; J < 40; ++J) {
        Other.readLock();
        Other.readUnlock();
      }
    }
    L.readLock(); // the 16th slow read re-arms
    L.readUnlock();
    EXPECT_TRUE(L.readBiased());
  }
  EXPECT_FALSE(Other.readBiased());
  EXPECT_EQ(L.readerCount(), 0u);
  EXPECT_EQ(Other.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, BiasDisabledConfigDegeneratesToUnderlying) {
  BravoConfig Cfg;
  Cfg.BiasEnabled = false;
  BravoRwLock Plain(Ctx, Cfg);
  Plain.readLock();
  EXPECT_FALSE(Plain.readBiased());
  EXPECT_EQ(Plain.readerCount(), 1u);
  Plain.readUnlock();
  Plain.writeLock();
  Plain.writeUnlock();
  EXPECT_EQ(Plain.revocations(), 0u);
}

TEST_F(BravoRwLockTest, BiasedReadsPerformNoSharedStateRmw) {
  // The whole point of the layer: while biased, a read acquisition is two
  // plain stores (publish, retire) and zero RMWs on shared lock state.
  armBias();
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  for (int I = 0; I < 100; ++I)
    L.synchronizedReadOnly([](ReadGuard &) { return 0; });
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_EQ(After.AtomicRmws - Before.AtomicRmws, 0u);
  EXPECT_GE(After.LockWordStores - Before.LockWordStores, 200u);
}

TEST_F(BravoRwLockTest, MutualExclusionMixedLoad) {
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
          int64_t Seen =
              L.synchronizedReadOnly([&](ReadGuard &) { return Data; });
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

TEST_F(BravoRwLockTest, SynchronizedHelpersReleaseOnException) {
  armBias();
  EXPECT_THROW(
      L.synchronizedWrite([&]() -> int { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_FALSE(L.writeHeldByCurrentThread());
  EXPECT_THROW(L.synchronizedReadOnly(
                   [&](ReadGuard &) -> int { throw std::runtime_error("y"); }),
               std::runtime_error);
  EXPECT_EQ(L.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, TwoLocksShareAThreadWithoutCrosstalk) {
  // Distinct locks hash to (usually distinct) slots in the same
  // thread-owned group; even on a collision the second lock just takes the
  // underlying path. Either way the counts stay per-lock.
  BravoRwLock Other(Ctx);
  armBias();
  Other.readLock();
  Other.readUnlock();
  L.readLock();
  Other.readLock();
  EXPECT_EQ(L.readerCount(), 1u);
  EXPECT_EQ(Other.readerCount(), 1u);
  Other.readUnlock();
  L.readUnlock();
  EXPECT_EQ(L.readerCount(), 0u);
  EXPECT_EQ(Other.readerCount(), 0u);
}

TEST_F(BravoRwLockTest, ReentrantReaderPassesWaitingWriterBiased) {
  // The outer hold is a published slot; the writer has cleared the bias
  // and is scanning for that slot. The nested read must recognise its own
  // publication rather than queue on the underlying lock the writer owns.
  armBias();
  expectReentrantReadPassesWaitingWriter(L);
}

TEST_F(BravoRwLockTest, ReentrantReaderPassesWaitingWriterUnbiased) {
  // Bias off: both holds are underlying ones, so the nested read relies on
  // ReadWriteLock's reentrant bypass of its writer-preference gate.
  BravoConfig Cfg;
  Cfg.BiasEnabled = false;
  BravoRwLock Plain(Ctx, Cfg);
  expectReentrantReadPassesWaitingWriter(Plain);
}

TEST_F(BravoRwLockTest, LocksSharingAGroupSlotKeepSeparateHolds) {
  // Eight slots per thread group: among nine locks two must share this
  // thread's slot. The first to publish owns it; the other's holds go to
  // its underlying lock, and neither's release may touch the other's.
  std::vector<std::unique_ptr<BravoRwLock>> Locks;
  std::map<const void *, BravoRwLock *> BySlot;
  BravoRwLock *A = nullptr, *B = nullptr;
  while (!B) {
    Locks.push_back(std::make_unique<BravoRwLock>(Ctx));
    BravoRwLock *N = Locks.back().get();
    auto [It, Fresh] = BySlot.emplace(
        &BravoReaderTable::instance().slotFor(N).Publication, N);
    if (!Fresh) {
      A = It->second;
      B = N;
    }
  }
  ASSERT_LE(Locks.size(), BravoReaderTable::SlotsPerGroup + 1);
  for (BravoRwLock *X : {A, B}) {
    X->readLock();
    X->readUnlock();
    ASSERT_TRUE(X->readBiased());
  }

  for (bool ReleaseAFirst : {true, false}) {
    A->readLock();
    A->readLock(); // biased: one publication, depth 2
    B->readLock();
    B->readLock(); // slot holds A: both holds on B's underlying lock
    EXPECT_EQ(A->readerCount(), 1u);
    EXPECT_EQ(B->readerCount(), 2u);
    if (ReleaseAFirst) {
      A->readUnlock();
      EXPECT_EQ(A->readerCount(), 1u);
      A->readUnlock();
      EXPECT_EQ(A->readerCount(), 0u);
      EXPECT_EQ(B->readerCount(), 2u);
      // The slot is free again, so A republishes while B still holds
      // underlying reads; B's releases must leave A's publication alone.
      A->readLock();
      B->readUnlock();
      B->readUnlock();
      EXPECT_EQ(A->readerCount(), 1u);
      EXPECT_EQ(B->readerCount(), 0u);
      A->readUnlock();
    } else {
      B->readUnlock();
      EXPECT_EQ(A->readerCount(), 1u);
      EXPECT_EQ(B->readerCount(), 1u);
      B->readUnlock();
      EXPECT_EQ(B->readerCount(), 0u);
      A->readUnlock();
      EXPECT_EQ(A->readerCount(), 1u);
      A->readUnlock();
    }
    EXPECT_EQ(A->readerCount(), 0u);
    EXPECT_EQ(B->readerCount(), 0u);
  }
}
