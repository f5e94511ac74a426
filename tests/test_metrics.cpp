// Tests for the service metrics registry (counters, gauges, histograms,
// JSON / Prometheus export).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/metrics.hpp"
#include "util/check.hpp"

namespace stm {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests_total");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name returns the same counter.
  EXPECT_EQ(&reg.counter("requests_total"), &c);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  g.add(2.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(Metrics, TypeConflictRejected) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), check_error);
}

TEST(Metrics, HistogramPercentilesExact) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_ms");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 0.5);
  EXPECT_NEAR(s.p95, 95.0, 1.0);
  EXPECT_NEAR(s.p99, 99.0, 1.0);
  // Bucket counts cover every observation exactly once.
  std::uint64_t total = 0;
  for (auto c : s.counts) total += c;
  EXPECT_EQ(total, 100u);
}

TEST(Metrics, HistogramConcurrentObserve) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_ms");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.observe(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.snapshot().count, 4000u);
}

TEST(Metrics, JsonExportContainsAllKinds) {
  MetricsRegistry reg;
  reg.counter("hits").inc(7);
  reg.gauge("rate").set(0.5);
  reg.histogram("lat_ms").observe(2.5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"hits\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rate\": 0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos) << json;
}

TEST(Metrics, PrometheusExportShapes) {
  MetricsRegistry reg;
  reg.counter("hits", "cache hits").inc(3);
  reg.gauge("rate").set(0.25);
  Histogram& h = reg.histogram("lat_ms");
  h.observe(1.0);
  h.observe(4.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP hits cache hits"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE hits counter"), std::string::npos);
  EXPECT_NE(text.find("hits 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rate gauge"), std::string::npos);
  EXPECT_NE(text.find("rate 0.25"), std::string::npos);
  EXPECT_NE(text.find("lat_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("lat_ms{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(text.find("lat_ms{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 2"), std::string::npos);
  // One encoding per histogram: the summary, no `_hist` sibling family.
  EXPECT_EQ(text.find("_hist"), std::string::npos) << text;
}

TEST(Metrics, HistogramReservoirBounded) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_ms");
  // Push far past the reservoir capacity; percentiles stay sane.
  for (int i = 0; i < 20000; ++i) h.observe(5.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 20000u);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

}  // namespace
}  // namespace stm
