//===- obs/Metrics.h - Lock-free sharded metrics registry -----------------===//
///
/// \file
/// The metrics half of the bec observability layer (obs/Trace.h is the
/// tracing half; docs/observability.md is the catalog). A process-global
/// registry of named counters, gauges and fixed-bucket latency
/// histograms, designed so instrumented hot paths stay hot:
///
///  * Counter / Histogram writes land in a per-thread shard of relaxed
///    `std::atomic<uint64_t>` cells — one relaxed fetch_add per count,
///    no locks, no false sharing between threads. Shards are merged
///    under the registry mutex only on snapshot (read side) and on
///    thread exit (the exiting thread folds its shard into a retired
///    accumulator, so totals stay exact across any thread lifecycle).
///  * Gauges are point-in-time values (connection counts, queue depth)
///    and live in a fixed table of process-global atomics instead, so
///    a registration never moves a gauge another thread is writing.
///  * Registration (name -> slot) happens once per call site via
///    function-local statics; after that, handles carry raw slot
///    indices and never touch the name map again.
///
/// Metric names use dotted lowercase ("engine.runs") and may carry one
/// embedded Prometheus-style label set: `serve.method.us{method="analyze"}`.
/// The renderer in obs/Prometheus.h splits on the brace.
///
/// Compile-time kill switch: building with -DBEC_OBS_DISABLED turns the
/// whole surface (metrics *and* tracing) into empty inlines. Runtime kill
/// switch: setMetricsEnabled(false), or the BEC_OBS_DISABLED environment
/// variable at process start; bench_TimingGates uses the runtime switch
/// to measure both sides in one binary.
///
/// Exactness contract: after the writing threads have joined (or any
/// other happens-before edge to the reader), snapshotMetrics() totals
/// equal the sum of all add()/observeUs() calls exactly — relaxed
/// ordering never loses increments, it only leaves in-flight ones
/// invisible to a concurrent reader.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_OBS_METRICS_H
#define BEC_OBS_METRICS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bec {
namespace obs {

/// Shared histogram geometry: powers of two in microseconds, 1us..2^20us
/// (~1.05 s), plus a +Inf overflow bucket. One geometry for every
/// histogram keeps snapshots, quantiles and the Prometheus rendering
/// trivially mergeable.
inline constexpr unsigned NumHistogramBuckets = 22;

/// Upper bound of bucket \p B in microseconds (the last bucket is +Inf,
/// reported as UINT64_MAX).
uint64_t histogramBucketBound(unsigned B);

enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

/// A merged histogram: per-bucket counts (not cumulative), total count
/// and sum of observed microseconds.
struct HistogramData {
  std::array<uint64_t, NumHistogramBuckets> Buckets{};
  uint64_t Count = 0;
  uint64_t SumUs = 0;

  /// Upper bucket bound containing quantile \p Q (0 < Q <= 1), in
  /// microseconds; 0 when empty. Observations beyond the last finite
  /// bucket saturate at twice its bound.
  uint64_t quantileUs(double Q) const;
  double meanUs() const { return Count ? double(SumUs) / double(Count) : 0.0; }
};

/// One metric's merged value at snapshot time.
struct MetricValue {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  uint64_t Value = 0;     ///< Counter total.
  int64_t GaugeValue = 0; ///< Gauge level.
  HistogramData Hist;     ///< Histogram kind only.
};

/// A consistent-enough view of every registered metric (registration
/// order). "Consistent enough": concurrent writers may add increments
/// while the snapshot walks the shards; totals never go backwards.
struct MetricsSnapshot {
  std::vector<MetricValue> Metrics;
  const MetricValue *find(std::string_view Name) const;
};

#ifndef BEC_OBS_DISABLED

namespace detail {
/// Slot index into the per-thread shards; ~0 = dead handle (registry
/// full), all operations no-op.
using Slot = uint32_t;
inline constexpr Slot DeadSlot = ~Slot(0);

Slot registerMetric(std::string_view Name, MetricKind Kind);
void counterAdd(Slot S, uint64_t N);
void gaugeAdd(Slot S, int64_t Delta);
void gaugeSet(Slot S, int64_t V);
void histogramObserve(Slot S, uint64_t Us);
bool enabled();
} // namespace detail

/// Monotonic counter handle. Cheap to copy; construct once per call site
/// (function-local static) so registration cost is paid once.
class Counter {
public:
  Counter() = default;
  explicit Counter(std::string_view Name)
      : S(detail::registerMetric(Name, MetricKind::Counter)) {}
  void add(uint64_t N = 1) const {
    if (detail::enabled())
      detail::counterAdd(S, N);
  }

private:
  detail::Slot S = detail::DeadSlot;
};

/// Point-in-time level (may go down). Backed by one global atomic.
class Gauge {
public:
  Gauge() = default;
  explicit Gauge(std::string_view Name)
      : S(detail::registerMetric(Name, MetricKind::Gauge)) {}
  void add(int64_t Delta) const {
    if (detail::enabled())
      detail::gaugeAdd(S, Delta);
  }
  void set(int64_t V) const {
    if (detail::enabled())
      detail::gaugeSet(S, V);
  }

private:
  detail::Slot S = detail::DeadSlot;
};

/// Fixed-bucket latency histogram (microseconds).
class Histogram {
public:
  Histogram() = default;
  explicit Histogram(std::string_view Name)
      : S(detail::registerMetric(Name, MetricKind::Histogram)) {}
  void observeUs(uint64_t Us) const {
    if (detail::enabled())
      detail::histogramObserve(S, Us);
  }

private:
  detail::Slot S = detail::DeadSlot;
};

/// RAII latency observation: observes the scope's wall time into \p H.
class ScopedTimerUs {
public:
  explicit ScopedTimerUs(const Histogram &H)
      : H(H), Start(std::chrono::steady_clock::now()) {}
  ScopedTimerUs(const ScopedTimerUs &) = delete;
  ScopedTimerUs &operator=(const ScopedTimerUs &) = delete;
  ~ScopedTimerUs() {
    auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    H.observeUs(Us < 0 ? 0 : uint64_t(Us));
  }

private:
  Histogram H;
  std::chrono::steady_clock::time_point Start;
};

/// Merged view over the retired accumulator and every live thread shard.
MetricsSnapshot snapshotMetrics();

/// Zeroes every counter/gauge/histogram cell (registrations and handles
/// stay valid). For tests and benchmarks only: concurrent writers may
/// re-add while the reset walks the shards.
void resetMetrics();

/// Runtime kill switch (also settable via the BEC_OBS_DISABLED
/// environment variable at process start). Disabled metrics cost one
/// relaxed atomic load per call site.
bool metricsEnabled();
void setMetricsEnabled(bool Enabled);

#else // BEC_OBS_DISABLED

class Counter {
public:
  Counter() = default;
  explicit Counter(std::string_view) {}
  void add(uint64_t = 1) const {}
};

class Gauge {
public:
  Gauge() = default;
  explicit Gauge(std::string_view) {}
  void add(int64_t) const {}
  void set(int64_t) const {}
};

class Histogram {
public:
  Histogram() = default;
  explicit Histogram(std::string_view) {}
  void observeUs(uint64_t) const {}
};

class ScopedTimerUs {
public:
  explicit ScopedTimerUs(const Histogram &) {}
  ScopedTimerUs(const ScopedTimerUs &) = delete;
  ScopedTimerUs &operator=(const ScopedTimerUs &) = delete;
};

inline MetricsSnapshot snapshotMetrics() { return {}; }
inline void resetMetrics() {}
inline bool metricsEnabled() { return false; }
inline void setMetricsEnabled(bool) {}

#endif // BEC_OBS_DISABLED

} // namespace obs
} // namespace bec

#endif // BEC_OBS_METRICS_H
