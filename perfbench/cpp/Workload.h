//===- perfbench/cpp/Workload.h - Workloads, op streams, oracles -*- C++ -*-===//
///
/// \file
/// The benchmark's workloads, the seeded op stream each client draws from,
/// and the output oracles. NOTES.md gives the reason for every workload and
/// the cache-sizing arithmetic behind the key counts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/Distributions.h"
#include "support/Rng.h"

namespace perfbench {

enum class OpKind : uint8_t { Get, Put, Remove, Scan, GuestRead, GuestWrite };

struct Op {
  OpKind Kind = OpKind::Get;
  uint64_t Key = 0; ///< key, shard index (Scan) or value (GuestWrite)
};

struct WorkloadSpec {
  std::string Name;
  bool Guest = false;
  /// Key universe. Keys are drawn from [0, Keys).
  uint64_t Keys = 0;
  /// Prefill keeps a key when its seeded coin (see prefilled()) is below
  /// this share; churn mixes use 1/2 so PUTs and DELETEs leave the live
  /// count where the prefill put it.
  double PrefillShare = 1.0;
  double Zipf = 0.0; ///< 0 = uniform keys
  // Op mix in percent: GET (or readConfig), PUT (or writeConfig), DELETE,
  // SCAN. Sums to 100.
  unsigned GetPct = 100, PutPct = 0, RemovePct = 0, ScanPct = 0;
};

/// Shard count and initial per-shard capacity of every KV workload, as the
/// kv_service bench configures the store.
inline constexpr unsigned KvShards = 16;
inline constexpr std::size_t KvInitialShardCapacity = 64;

inline const std::vector<WorkloadSpec> &workloads() {
  static const std::vector<WorkloadSpec> W = {
      {"kv-read-hot", false, 64 * 1024, 1.0, 0.99, 99, 1, 0, 0},
      {"kv-write-churn", false, 2 * 1024 * 1024, 0.5, 0.0, 50, 25, 25, 0},
      {"kv-scan-mix", false, 64 * 1024, 1.0, 0.99, 85, 10, 0, 5},
      {"guest-config", true, 0, 1.0, 0.0, 95, 5, 0, 0},
  };
  return W;
}

inline const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : workloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

/// Whether \p Key is in the prefill of a run with \p Seed.
inline bool prefilled(const WorkloadSpec &W, uint64_t Seed, uint64_t Key) {
  if (W.PrefillShare >= 1.0)
    return true;
  solero::SplitMix64 M(Seed * 0x9e3779b97f4a7c15ULL ^ Key);
  return double(M.next() >> 11) * 0x1.0p-53 < W.PrefillShare;
}

/// One client's op stream: a pure function of (workload, seed, client).
/// Every lock policy replays the same streams.
class OpStream {
public:
  OpStream(const WorkloadSpec &W, uint64_t Seed, unsigned Client,
           std::shared_ptr<const solero::ZipfianSampler> Zipf)
      : W(W), Rng(Seed * 0x100000001b3ULL + Client + 1), Zipf(std::move(Zipf)) {}

  Op next() {
    Op O;
    const unsigned Pick = static_cast<unsigned>(Rng.nextBounded(100));
    if (W.Guest) {
      O.Kind = Pick < W.GetPct ? OpKind::GuestRead : OpKind::GuestWrite;
      O.Key = Rng.next() >> 2; // writeConfig value; -v must not overflow
      return O;
    }
    if (Pick < W.GetPct)
      O.Kind = OpKind::Get;
    else if (Pick < W.GetPct + W.PutPct)
      O.Kind = OpKind::Put;
    else if (Pick < W.GetPct + W.PutPct + W.RemovePct)
      O.Kind = OpKind::Remove;
    else
      O.Kind = OpKind::Scan;
    if (O.Kind == OpKind::Scan)
      O.Key = Rng.nextBounded(KvShards);
    else
      O.Key = Zipf ? Zipf->nextScrambled(Rng) : Rng.nextBounded(W.Keys);
    return O;
  }

private:
  const WorkloadSpec &W;
  solero::Xoshiro256StarStar Rng;
  std::shared_ptr<const solero::ZipfianSampler> Zipf;
};

// --- Output oracles ---------------------------------------------------------

/// Stored values carry their key in the high half, so a GET that returns
/// another key's value is detected. \p Version fills the low half.
inline uint64_t taggedValue(uint64_t Key, uint64_t Version) {
  return (Key << 32) | (Version & 0xffffffffULL);
}
inline bool tagMatches(uint64_t Key, uint64_t Value) {
  return (Value >> 32) == Key;
}

/// writeConfig stores v, -v, v, -v, so every consistent readConfig sums to
/// 0 and any other sum is a torn read.
inline bool guestSumConsistent(int64_t Sum) { return Sum == 0; }

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
