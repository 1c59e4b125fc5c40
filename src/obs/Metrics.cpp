//===- obs/Metrics.cpp - Lock-free sharded metrics registry ---------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <mutex>

using namespace bec;
using namespace bec::obs;

//===----------------------------------------------------------------------===//
// Geometry helpers (available in both builds: snapshots parsed from a
// remote stats reply still need quantiles under BEC_OBS_DISABLED).
//===----------------------------------------------------------------------===//

uint64_t bec::obs::histogramBucketBound(unsigned B) {
  if (B + 1 >= NumHistogramBuckets)
    return ~uint64_t(0); // +Inf.
  return uint64_t(1) << B;
}

uint64_t HistogramData::quantileUs(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  // Rank of the quantile observation (1-based, ceil), then walk the
  // cumulative bucket counts.
  uint64_t Rank = uint64_t(std::ceil(Q * double(Count)));
  if (Rank == 0)
    Rank = 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Cum = 0;
  for (unsigned B = 0; B < NumHistogramBuckets; ++B) {
    Cum += Buckets[B];
    if (Cum >= Rank) {
      if (B + 1 >= NumHistogramBuckets)
        return histogramBucketBound(NumHistogramBuckets - 2) * 2; // Saturate.
      return histogramBucketBound(B);
    }
  }
  return histogramBucketBound(NumHistogramBuckets - 2) * 2;
}

const MetricValue *MetricsSnapshot::find(std::string_view Name) const {
  for (const MetricValue &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

#ifndef BEC_OBS_DISABLED

//===----------------------------------------------------------------------===//
// Registry internals
//===----------------------------------------------------------------------===//

namespace {

/// Cell capacity of one per-thread shard. 4096 cells = 32 KiB per
/// writing thread; a histogram costs NumHistogramBuckets + 2 cells, so
/// this comfortably covers hundreds of metrics. Registrations past the
/// cap get a dead handle (silently no-op) rather than UB.
constexpr uint32_t MaxSlots = 4096;

/// Gauge capacity, fixed for the same reason as the shards: writers
/// index gauges without the registry lock, so registering one must never
/// move the others. Registrations past the cap get a dead handle.
constexpr uint32_t MaxGauges = 256;

struct Shard {
  std::array<std::atomic<uint64_t>, MaxSlots> Cells{};
};

struct MetricMeta {
  std::string Name;
  MetricKind Kind;
  uint32_t Slot;  ///< First cell (counters/histograms) or gauge index.
  uint32_t Cells; ///< Cell count (0 for gauges).
};

struct Registry {
  std::mutex Mu;
  std::vector<MetricMeta> Metrics; // Registration order.
  uint32_t NextSlot = 0;
  /// Sums of the shards of exited threads, index-parallel to cells.
  std::array<uint64_t, MaxSlots> Retired{};
  std::vector<Shard *> LiveShards;
  /// Gauges live here, not in shards: a level is global by nature.
  std::array<std::atomic<int64_t>, MaxGauges> Gauges{};
  uint32_t NumGauges = 0;
  std::atomic<bool> Enabled{true};

  Registry() {
    if (const char *E = std::getenv("BEC_OBS_DISABLED"))
      if (E[0] && !(E[0] == '0' && E[1] == '\0'))
        Enabled.store(false, std::memory_order_relaxed);
  }
};

Registry &registry() {
  // Leaked on purpose: worker threads may fold their shards into the
  // retired accumulator during process teardown, after static
  // destructors would have run.
  static Registry *R = new Registry();
  return *R;
}

/// The calling thread's shard, registered with the registry on first
/// use and folded into Retired on thread exit.
struct ThreadShard {
  Shard *S = nullptr;

  Shard *get() {
    if (!S) {
      S = new Shard();
      Registry &R = registry();
      std::lock_guard<std::mutex> Lock(R.Mu);
      R.LiveShards.push_back(S);
    }
    return S;
  }

  ~ThreadShard() {
    if (!S)
      return;
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (uint32_t I = 0; I < MaxSlots; ++I)
      R.Retired[I] += S->Cells[I].load(std::memory_order_relaxed);
    R.LiveShards.erase(
        std::find(R.LiveShards.begin(), R.LiveShards.end(), S));
    delete S;
  }
};

thread_local ThreadShard TLS;

} // namespace

detail::Slot bec::obs::detail::registerMetric(std::string_view Name,
                                              MetricKind Kind) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (const MetricMeta &M : R.Metrics)
    if (M.Name == Name && M.Kind == Kind)
      return M.Slot;
  uint32_t Cells = Kind == MetricKind::Counter     ? 1
                   : Kind == MetricKind::Histogram ? NumHistogramBuckets + 2
                                                   : 0;
  MetricMeta Meta;
  Meta.Name = std::string(Name);
  Meta.Kind = Kind;
  Meta.Cells = Cells;
  if (Kind == MetricKind::Gauge) {
    if (R.NumGauges == MaxGauges)
      return DeadSlot;
    Meta.Slot = R.NumGauges++;
  } else {
    if (R.NextSlot + Cells > MaxSlots)
      return DeadSlot;
    Meta.Slot = R.NextSlot;
    R.NextSlot += Cells;
  }
  R.Metrics.push_back(std::move(Meta));
  return R.Metrics.back().Slot;
}

bool bec::obs::detail::enabled() {
  return registry().Enabled.load(std::memory_order_relaxed);
}

void bec::obs::detail::counterAdd(Slot S, uint64_t N) {
  if (S == DeadSlot)
    return;
  TLS.get()->Cells[S].fetch_add(N, std::memory_order_relaxed);
}

void bec::obs::detail::gaugeAdd(Slot S, int64_t Delta) {
  if (S == DeadSlot)
    return;
  Registry &R = registry();
  R.Gauges[S].fetch_add(Delta, std::memory_order_relaxed);
}

void bec::obs::detail::gaugeSet(Slot S, int64_t V) {
  if (S == DeadSlot)
    return;
  Registry &R = registry();
  R.Gauges[S].store(V, std::memory_order_relaxed);
}

void bec::obs::detail::histogramObserve(Slot S, uint64_t Us) {
  if (S == DeadSlot)
    return;
  // Bucket B covers (2^(B-1), 2^B] us; 0 and 1 land in bucket 0, values
  // beyond the last finite bound land in the +Inf bucket.
  unsigned B = Us <= 1 ? 0 : unsigned(std::bit_width(Us - 1));
  if (B >= NumHistogramBuckets - 1)
    B = NumHistogramBuckets - 1;
  Shard *Sh = TLS.get();
  Sh->Cells[S + B].fetch_add(1, std::memory_order_relaxed);
  Sh->Cells[S + NumHistogramBuckets].fetch_add(1, std::memory_order_relaxed);
  Sh->Cells[S + NumHistogramBuckets + 1].fetch_add(Us,
                                                   std::memory_order_relaxed);
}

MetricsSnapshot bec::obs::snapshotMetrics() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  // Merge retired + live cells once, then slice per metric.
  std::array<uint64_t, MaxSlots> Sum = R.Retired;
  for (const Shard *S : R.LiveShards)
    for (uint32_t I = 0; I < R.NextSlot; ++I)
      Sum[I] += S->Cells[I].load(std::memory_order_relaxed);

  MetricsSnapshot Snap;
  Snap.Metrics.reserve(R.Metrics.size());
  for (const MetricMeta &M : R.Metrics) {
    MetricValue V;
    V.Name = M.Name;
    V.Kind = M.Kind;
    switch (M.Kind) {
    case MetricKind::Counter:
      V.Value = M.Slot == detail::DeadSlot ? 0 : Sum[M.Slot];
      break;
    case MetricKind::Gauge:
      V.GaugeValue = R.Gauges[M.Slot].load(std::memory_order_relaxed);
      break;
    case MetricKind::Histogram:
      if (M.Slot != detail::DeadSlot) {
        for (unsigned B = 0; B < NumHistogramBuckets; ++B)
          V.Hist.Buckets[B] = Sum[M.Slot + B];
        V.Hist.Count = Sum[M.Slot + NumHistogramBuckets];
        V.Hist.SumUs = Sum[M.Slot + NumHistogramBuckets + 1];
      }
      break;
    }
    Snap.Metrics.push_back(std::move(V));
  }
  return Snap;
}

void bec::obs::resetMetrics() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Retired.fill(0);
  for (Shard *S : R.LiveShards)
    for (uint32_t I = 0; I < MaxSlots; ++I)
      S->Cells[I].store(0, std::memory_order_relaxed);
  for (std::atomic<int64_t> &G : R.Gauges)
    G.store(0, std::memory_order_relaxed);
}

bool bec::obs::metricsEnabled() { return detail::enabled(); }

void bec::obs::setMetricsEnabled(bool Enabled) {
  registry().Enabled.store(Enabled, std::memory_order_relaxed);
}

#endif // BEC_OBS_DISABLED
