// Metrics registry for the query service layer.
//
// Counters (monotonic), gauges (instantaneous) and latency histograms,
// registered by name and exportable as JSON or Prometheus text exposition.
// All metric updates are thread-safe: counters and gauges are atomic,
// histograms take a short lock per observation. Percentiles (p50/p95/p99)
// are exact, computed from a bounded sample reservoir with util/stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stm {

/// Monotonically increasing counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous value (queue depth, in-flight queries, hit rate).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Snapshot of a histogram, taken under its lock.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Per-bucket (non-cumulative) counts; counts.size() == bounds.size() + 1,
  /// the last bucket is +Inf.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
};

/// Latency histogram: fixed upper-bound buckets plus a bounded reservoir of
/// raw samples for exact percentiles (reservoir-sampled past capacity).
class Histogram {
 public:
  /// Default bounds: exponential 0.25ms .. 8192ms.
  static std::vector<double> default_latency_bounds_ms();

  explicit Histogram(std::vector<double> bounds = default_latency_bounds_ms());

  void observe(double v);
  HistogramSnapshot snapshot() const;

 private:
  static constexpr std::size_t kReservoirCapacity = 8192;

  mutable std::mutex mu_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> samples_;
  std::uint64_t reservoir_state_;  // splitmix64 state for replacement slots
};

/// Named metric registry. Metric objects are created on first access and
/// remain valid (stable addresses) for the registry's lifetime, so hot paths
/// can cache `Counter&` references.
///
/// Names may carry a Prometheus label set (`shard_owned_vertices{shard="0"}`);
/// each labeled series is its own counter/gauge, the exporters emit one
/// HELP/TYPE header per family (the part before '{') and escape the quotes
/// in JSON keys. Histograms do not support labels.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       std::vector<double> bounds =
                           Histogram::default_latency_bounds_ms());

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, p50, p95, p99, buckets: [{le, count}...]}}}
  std::string to_json() const;

  /// Prometheus text exposition: counters and gauges as-is; histograms as
  /// summaries (quantile 0.5/0.95/0.99 + _sum/_count).
  std::string to_prometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const std::string& help,
                        Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
  std::map<std::string, Entry*> by_name_;
};

}  // namespace stm
