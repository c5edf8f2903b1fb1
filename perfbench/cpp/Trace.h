//===- perfbench/cpp/Trace.h - Sampled request spans and ledger -*- C++ -*-===//
///
/// \file
/// Span tracing for the traced run. A sampled request records one span per
/// call into a layer's public functions (name, start, end, parent, request
/// id) into a preallocated per-thread buffer; nothing is allocated or shared
/// on the request path. When a traced round ends, the buffers are folded
/// into a Ledger: per span name, the count, the total duration and the
/// total self time, where self time is the span's duration minus the part
/// of its interval that its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "Measure.h"

namespace perfbench {

/// Span names. The layer each one is charged to is spanLayer().
enum SpanName : uint16_t {
  SpRequest,     ///< one closed-loop iteration (benchmark loop)
  SpGen,         ///< op and key draw (support)
  SpKvGet,       ///< store read section for a GET (kv + lock)
  SpKvPut,       ///< store write section for a PUT
  SpKvRemove,    ///< store write section for a DELETE
  SpKvScan,      ///< store read section for a SCAN
  SpTableGet,    ///< ShardTable::get body
  SpTablePut,    ///< ShardTable::put body
  SpTableRemove, ///< ShardTable::remove body
  SpTableScan,   ///< ShardTable::scan body
  SpCfgRead,     ///< native config read section (guest-config, BRAVO)
  SpCfgWrite,    ///< native config write section (guest-config, BRAVO)
  SpJitRead,     ///< Interpreter::invoke(readConfig)
  SpJitWrite,    ///< Interpreter::invoke(writeConfig)
  SpanNameCount
};

/// Layers self time is charged to. The self time of a store section span
/// (kv.get ... kv.scan) is the lock protocol's: entry, waiting, validation,
/// retries and the epoch pin, around the ShardTable body.
enum Layer : uint8_t { LayBench, LaySupport, LayLock, LayKv, LayJit, LayerCount };

inline const char *layerString(Layer L, bool Solero) {
  static constexpr std::array<const char *, LayerCount> Names = {
      "bench", "support", "locks", "kv", "jit"};
  return L == LayLock && Solero ? "core" : Names[L];
}

inline Layer spanLayer(SpanName N) {
  switch (N) {
  case SpRequest:
    return LayBench;
  case SpGen:
    return LaySupport;
  case SpKvGet:
  case SpKvPut:
  case SpKvRemove:
  case SpKvScan:
  case SpCfgRead:
  case SpCfgWrite:
    return LayLock;
  case SpJitRead:
  case SpJitWrite:
    return LayJit;
  default:
    return LayKv;
  }
}

inline constexpr uint32_t NoParent = ~0u;

struct Span {
  uint64_t Start = 0;
  uint64_t End = 0;
  uint32_t Request = 0;
  uint32_t Parent = NoParent; ///< index in the same buffer
  SpanName Name = SpRequest;
};

/// One client thread's preallocated span buffer. A request is recorded
/// only when MaxSpansPerRequest slots are free, so a recorded request is
/// always complete; otherwise it is counted as dropped.
class SpanBuffer {
public:
  static constexpr uint32_t MaxSpansPerRequest = 16;

  explicit SpanBuffer(std::size_t Capacity) : Spans(Capacity) {}

  /// Opens request \p Id's root span; false (and a dropped count) when the
  /// buffer cannot hold a whole request.
  bool beginRequest(uint32_t Id) {
    if (Spans.size() - Size < MaxSpansPerRequest) {
      ++Dropped;
      return false;
    }
    RequestId = Id;
    RequestBase = Size;
    return true;
  }

  uint32_t open(SpanName N) {
    if (Size - RequestBase >= MaxSpansPerRequest)
      return NoParent; // runaway retries: the ledger sees the parent only
    uint32_t I = static_cast<uint32_t>(Size++);
    Span &S = Spans[I];
    S.Name = N;
    S.Parent = Current;
    S.Request = RequestId;
    S.Start = ticks();
    S.End = 0;
    Current = I;
    return I;
  }

  void close(uint32_t I) {
    if (I == NoParent)
      return;
    Spans[I].End = ticks();
    Current = Spans[I].Parent;
  }

  const Span *data() const { return Spans.data(); }
  std::size_t size() const { return Size; }
  uint64_t dropped() const { return Dropped; }
  void clear() {
    Size = 0;
    Current = NoParent;
  }

private:
  std::vector<Span> Spans;
  std::size_t Size = 0;
  std::size_t RequestBase = 0;
  uint32_t Current = NoParent;
  uint32_t RequestId = 0;
  uint64_t Dropped = 0;
};

/// RAII span; a null buffer (unsampled request) records nothing. Closing
/// in the destructor keeps the span well formed when a speculative body
/// unwinds through it.
class SpanScope {
public:
  SpanScope(SpanBuffer *B, SpanName N) : B(B), I(B ? B->open(N) : NoParent) {}
  ~SpanScope() {
    if (B)
      B->close(I);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanBuffer *B;
  uint32_t I;
};

/// Self time of every span in \p Spans (one thread's buffer, parents
/// before children), in ticks: duration minus the union of the child
/// intervals clipped to the parent's interval.
inline std::vector<uint64_t> selfTimes(const Span *Spans, std::size_t N) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(N);
  for (std::size_t I = 0; I < N; ++I)
    if (Spans[I].Parent != NoParent && Spans[I].Parent < N)
      Children[Spans[I].Parent].push_back({Spans[I].Start, Spans[I].End});
  std::vector<uint64_t> Self(N, 0);
  for (std::size_t I = 0; I < N; ++I) {
    const uint64_t S = Spans[I].Start, E = std::max(Spans[I].End, S);
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    uint64_t Covered = 0, Reach = S;
    for (auto [CS, CE] : C) {
      CS = std::max(CS, Reach);
      CE = std::min(CE, E);
      if (CE > CS) {
        Covered += CE - CS;
        Reach = CE;
      }
    }
    Self[I] = (E - S) - Covered;
  }
  return Self;
}

/// Totals per span name, in ticks.
struct Ledger {
  struct Entry {
    uint64_t Count = 0;
    uint64_t Duration = 0;
    uint64_t Self = 0;
  };
  std::array<Entry, SpanNameCount> ByName{};
  uint64_t Requests = 0;
  uint64_t DroppedRequests = 0;

  void add(const SpanBuffer &B) {
    std::vector<uint64_t> Self = selfTimes(B.data(), B.size());
    for (std::size_t I = 0; I < B.size(); ++I) {
      const Span &S = B.data()[I];
      Entry &E = ByName[S.Name];
      ++E.Count;
      E.Duration += S.End > S.Start ? S.End - S.Start : 0;
      E.Self += Self[I];
      Requests += S.Name == SpRequest;
    }
    DroppedRequests += B.dropped();
  }

  /// Mean duration of span \p N in ns (0 when it never occurred).
  double meanNs(SpanName N, double TicksPerNs) const {
    const Entry &E = ByName[N];
    return E.Count ? double(E.Duration) / double(E.Count) / TicksPerNs : 0.0;
  }

  /// Mean self time over the spans named in \p Names, in ns.
  double meanSelfNs(std::initializer_list<SpanName> Names,
                    double TicksPerNs) const {
    uint64_t C = 0, S = 0;
    for (SpanName N : Names) {
      C += ByName[N].Count;
      S += ByName[N].Self;
    }
    return C ? double(S) / double(C) / TicksPerNs : 0.0;
  }

  /// Share of all request time that is self time of layer \p L.
  double layerShare(Layer L) const {
    uint64_t Total = ByName[SpRequest].Duration, S = 0;
    for (unsigned N = 0; N < SpanNameCount; ++N)
      if (spanLayer(SpanName(N)) == L)
        S += ByName[N].Self;
    return Total ? double(S) / double(Total) : 0.0;
  }
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
