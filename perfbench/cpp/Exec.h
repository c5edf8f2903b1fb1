//===- perfbench/cpp/Exec.h - One benchmark op against the program -*- C++ -*-//
///
/// \file
/// Executes one op against the KV store or the guest interpreter and checks
/// its output. The untraced form calls the store's public API; the traced
/// form issues the same read and write sections through readShard and
/// writeShard so the ShardTable body gets its own span and the number of
/// body executions per read section can be counted. The guest workload's
/// BRAVO row runs the config object as native code (execConfig), because
/// the interpreter has no BRAVO mode.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EXEC_H
#define PERFBENCH_EXEC_H

#include <array>
#include <cstdint>
#include <vector>

#include "Trace.h"
#include "Workload.h"
#include "jit/Interpreter.h"
#include "kv/ShardedKvStore.h"
#include "runtime/SharedField.h"
#include "workloads/LockPolicies.h"

namespace perfbench {

/// One client's running totals for one policy instance.
struct ClientTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Inserts = 0;
  uint64_t Removes = 0;
  uint64_t Version = 0;
  // Traced run only.
  uint64_t ReadSections = 0;
  uint64_t ReadBodies = 0;
  std::array<uint64_t, KvShards> ShardOps{};
};

/// What every GET, SCAN and guest read is checked against.
struct KvExpect {
  /// Live entries per shard when no op can insert or remove (all keys
  /// prefilled, no DELETE); empty otherwise and SCANs are not checked.
  std::vector<uint64_t> ShardLive;
  /// Every key is present for the whole run (all keys prefilled, no
  /// DELETE), so a GET that finds nothing is a failure.
  bool NoMisses = false;
};

/// Runs \p O on \p S and sets \p Lat to the ticks from just before to
/// just after the store call. \p Traced selects the readShard/writeShard
/// form; \p B non-null records spans. Returns whether the output passed
/// its oracle.
template <bool Traced, typename StoreT>
bool execKv(StoreT &S, const Op &O, const KvExpect &X, ClientTally &T,
            SpanBuffer *B, uint64_t &Lat) {
  using solero::ReadGuard;
  using solero::kv::ShardTable;
  const uint64_t K = O.Key;
  bool Ok = true;
  uint64_t T0 = 0;
  if constexpr (!Traced) {
    switch (O.Kind) {
    case OpKind::Get: {
      T0 = ticks();
      std::optional<uint64_t> V = S.get(K);
      Lat = ticks() - T0;
      Ok = V ? tagMatches(K, *V) : !X.NoMisses;
      break;
    }
    case OpKind::Put: {
      const uint64_t V = taggedValue(K, ++T.Version);
      T0 = ticks();
      const bool Inserted = S.put(K, V);
      Lat = ticks() - T0;
      T.Inserts += Inserted;
      break;
    }
    case OpKind::Remove: {
      T0 = ticks();
      const bool Removed = S.remove(K);
      Lat = ticks() - T0;
      T.Removes += Removed;
      break;
    }
    default: {
      T0 = ticks();
      ShardTable::ScanStats St = S.scanShard(static_cast<unsigned>(K));
      Lat = ticks() - T0;
      Ok = X.ShardLive.empty() || St.LiveEntries == X.ShardLive[K];
      break;
    }
    }
  } else {
    const unsigned Sh =
        O.Kind == OpKind::Scan ? static_cast<unsigned>(K) : S.shardOf(K);
    ++T.ShardOps[Sh];
    T0 = ticks();
    switch (O.Kind) {
    case OpKind::Get: {
      SpanScope Sec(B, SpKvGet);
      ShardTable::Lookup R =
          S.readShard(Sh, [&](const ShardTable &Tab, ReadGuard &) {
            ++T.ReadBodies;
            SpanScope Body(B, SpTableGet);
            return Tab.get(K);
          });
      ++T.ReadSections;
      Ok = R.Found ? tagMatches(K, R.Value) : !X.NoMisses;
      break;
    }
    case OpKind::Put: {
      SpanScope Sec(B, SpKvPut);
      const uint64_t V = taggedValue(K, ++T.Version);
      T.Inserts += S.writeShard(Sh, [&](ShardTable &Tab) {
        SpanScope Body(B, SpTablePut);
        return Tab.put(K, V);
      });
      break;
    }
    case OpKind::Remove: {
      SpanScope Sec(B, SpKvRemove);
      T.Removes += S.writeShard(Sh, [&](ShardTable &Tab) {
        SpanScope Body(B, SpTableRemove);
        return Tab.remove(K);
      });
      break;
    }
    default: {
      SpanScope Sec(B, SpKvScan);
      ShardTable::ScanStats St =
          S.readShard(Sh, [&](const ShardTable &Tab, ReadGuard &) {
            ++T.ReadBodies;
            SpanScope Body(B, SpTableScan);
            return Tab.scan();
          });
      ++T.ReadSections;
      Ok = X.ShardLive.empty() || St.LiveEntries == X.ShardLive[K];
      break;
    }
    }
    Lat = ticks() - T0;
  }
  ++T.Attempted;
  T.Failed += !Ok;
  return Ok;
}

/// The config guest bound to one interpreter and its shared object.
struct GuestTarget {
  solero::jit::Interpreter *Interp = nullptr;
  solero::jit::GuestObject *Obj = nullptr;
  uint32_t ReadId = 0;
  uint32_t WriteId = 0;
};

/// Runs a readConfig or writeConfig op; a readConfig sum other than 0 is a
/// torn read. \p Lat is set to the ticks of the Interpreter::invoke call;
/// the argument vector is built before it.
inline bool execGuest(const GuestTarget &G, const Op &O, ClientTally &T,
                      SpanBuffer *B, uint64_t &Lat) {
  using solero::jit::Value;
  std::vector<Value> Args;
  bool Ok = true;
  if (O.Kind == OpKind::GuestRead) {
    Args = {Value::ofRef(G.Obj)};
    const uint64_t T0 = ticks();
    int64_t Sum;
    {
      SpanScope S(B, SpJitRead);
      Sum = G.Interp->invoke(G.ReadId, std::move(Args)).asInt();
    }
    Lat = ticks() - T0;
    Ok = guestSumConsistent(Sum);
  } else {
    Args = {Value::ofRef(G.Obj), Value::ofInt(static_cast<int64_t>(O.Key))};
    const uint64_t T0 = ticks();
    {
      SpanScope S(B, SpJitWrite);
      G.Interp->invoke(G.WriteId, std::move(Args));
    }
    Lat = ticks() - T0;
  }
  ++T.Attempted;
  T.Failed += !Ok;
  return Ok;
}

/// The config guest's object as native code under a BRAVO lock: the same
/// four fields, read as one sum and written as v, -v, v, -v.
struct NativeConfig {
  explicit NativeConfig(solero::RuntimeContext &Ctx) : Lock(Ctx) {}
  solero::BravoRwPolicy Lock;
  std::array<solero::SharedField<int64_t>, 4> F;
};

/// Runs a readConfig or writeConfig op on \p C as a read or write section
/// of its lock; the oracle and timing are execGuest's. The traced form
/// counts body executions per read section.
template <bool Traced>
bool execConfig(NativeConfig &C, const Op &O, ClientTally &T, SpanBuffer *B,
                uint64_t &Lat) {
  bool Ok = true;
  if (O.Kind == OpKind::GuestRead) {
    const uint64_t T0 = ticks();
    int64_t Sum;
    {
      SpanScope S(B, SpCfgRead);
      Sum = C.Lock.read([&](solero::ReadGuard &) {
        if constexpr (Traced)
          ++T.ReadBodies;
        return C.F[0].read() + C.F[1].read() + C.F[2].read() + C.F[3].read();
      });
    }
    Lat = ticks() - T0;
    if constexpr (Traced)
      ++T.ReadSections;
    Ok = guestSumConsistent(Sum);
  } else {
    const int64_t V = static_cast<int64_t>(O.Key);
    const uint64_t T0 = ticks();
    {
      SpanScope S(B, SpCfgWrite);
      C.Lock.write([&] {
        C.F[0].write(V);
        C.F[1].write(-V);
        C.F[2].write(V);
        C.F[3].write(-V);
      });
    }
    Lat = ticks() - T0;
  }
  ++T.Attempted;
  T.Failed += !Ok;
  return Ok;
}

} // namespace perfbench

#endif // PERFBENCH_EXEC_H
