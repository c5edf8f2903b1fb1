//===- examples/order_book.cpp - TreeMap + read-mostly upgrade -------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// A price-ordered order book on JavaTreeMap. Market-data queries (best
/// bid, depth probes) are read-only and elide; order placement writes;
/// and the "fill if marketable" operation uses the Section 5 read-mostly
/// extension: it reads the book speculatively and upgrades to the lock
/// with a single CAS only when it actually needs to trade.
///
///   build/examples/order_book [--orders=20000] [--threads=4]
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "collections/JavaTreeMap.h"
#include "core/SoleroLock.h"
#include "support/CliParser.h"
#include "support/Rng.h"

using namespace solero;

namespace {

/// Price-keyed resting quantity. Protected by one SOLERO lock.
class OrderBook {
public:
  explicit OrderBook(RuntimeContext &Ctx) : Lock(Ctx) {}

  void placeOrder(int64_t Price, int64_t Qty) {
    Lock.synchronizedWrite(Monitor, [&] {
      auto Cur = Bids.get(Price);
      Bids.put(Price, (Cur ? *Cur : 0) + Qty);
    });
  }

  /// Read-only: elided market-data query.
  std::optional<int64_t> bestBid() {
    auto R = Lock.synchronizedReadOnly(Monitor, [&](ReadGuard &) {
      auto K = Bids.firstKey();
      return K ? *K : -1;
    });
    return R < 0 ? std::nullopt : std::optional<int64_t>(R);
  }

  /// Read-only: total resting quantity at a price level.
  int64_t depthAt(int64_t Price) {
    return Lock.synchronizedReadOnly(Monitor, [&](ReadGuard &) {
      auto Q = Bids.get(Price);
      return Q ? *Q : 0;
    });
  }

  /// Read-mostly: probe the book speculatively; only if there is quantity
  /// to take does the section upgrade to the lock and mutate (Figure 17).
  int64_t fillAtOrBelow(int64_t Price, int64_t Want) {
    return Lock.synchronizedReadMostly(Monitor, [&](WriteIntent &W) {
      auto Q = Bids.get(Price);
      if (!Q || *Q == 0)
        return static_cast<int64_t>(0); // nothing to do: stays read-only
      W.acquireForWrite();              // one CAS validates + locks
      int64_t Take = *Q < Want ? *Q : Want;
      if (*Q == Take)
        Bids.remove(Price);
      else
        Bids.put(Price, *Q - Take);
      return Take;
    });
  }

  std::size_t levels() {
    return Lock.synchronizedReadOnly(Monitor,
                                     [&](ReadGuard &) { return Bids.size(); });
  }

  bool invariantsHold() {
    return Lock.synchronizedReadOnly(Monitor, [&](ReadGuard &) {
      return Bids.checkRedBlackInvariants() > 0;
    });
  }

private:
  SoleroLock Lock;
  ObjectHeader Monitor;
  JavaTreeMap<int64_t, int64_t> Bids;
};

} // namespace

int main(int Argc, char **Argv) {
  CliParser Args(Argc, Argv, {"orders", "threads"});
  const int Threads = static_cast<int>(Args.getInt("threads", 4));
  const int Orders = static_cast<int>(Args.getInt("orders", 20000));

  RuntimeContext Ctx;
  OrderBook Book(Ctx);
  std::atomic<int64_t> Placed{0}, Filled{0}, Queries{0};

  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      Xoshiro256StarStar Rng(1234 + static_cast<uint64_t>(T));
      for (int I = 0; I < Orders; ++I) {
        int64_t Price = 90 + static_cast<int64_t>(Rng.nextBounded(20));
        switch (Rng.nextBounded(10)) {
        case 0: { // 10%: place liquidity
          int64_t Qty = 1 + static_cast<int64_t>(Rng.nextBounded(100));
          Book.placeOrder(Price, Qty);
          Placed.fetch_add(Qty);
          break;
        }
        case 1: { // 10%: try to trade (read-mostly)
          Filled.fetch_add(Book.fillAtOrBelow(Price, 50));
          break;
        }
        default: // 80%: market data (read-only, elided)
          (void)Book.bestBid();
          (void)Book.depthAt(Price);
          Queries.fetch_add(1);
        }
      }
    });
  for (auto &T : Ts)
    T.join();

  int64_t Resting = 0;
  // Sum what is left on the book.
  for (int64_t P = 90; P < 110; ++P)
    Resting += Book.depthAt(P);

  ProtocolCounters C = ThreadRegistry::instance().totalCounters();
  std::printf("orders placed: %lld qty, filled: %lld, resting: %lld, "
              "levels: %zu\n",
              static_cast<long long>(Placed.load()),
              static_cast<long long>(Filled.load()),
              static_cast<long long>(Resting), Book.levels());
  std::printf("market-data queries: %lld, elision successes: %llu, "
              "failures: %llu\n",
              static_cast<long long>(Queries.load()),
              static_cast<unsigned long long>(C.ElisionSuccesses),
              static_cast<unsigned long long>(C.ElisionFailures));
  bool Balanced = Placed.load() == Filled.load() + Resting;
  std::printf("conservation (placed == filled + resting): %s\n",
              Balanced ? "OK" : "VIOLATED");
  std::printf("red-black invariants: %s\n",
              Book.invariantsHold() ? "OK" : "VIOLATED");
  return Balanced && Book.invariantsHold() ? 0 : 1;
}
