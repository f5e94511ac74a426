#include "service/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stm {

namespace {

/// Shortest round-trip double formatting that stays JSON/Prometheus-safe
/// (no NaN/Inf emitted; metrics never produce them by construction).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// JSON string escaping for metric names used as object keys — labeled names
/// like `shard_owned_vertices{shard="0"}` contain quotes.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The metric family of a possibly labeled series name: everything before
/// the '{'. Prometheus HELP/TYPE lines are per family, not per series.
std::string family_of(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

}  // namespace

std::vector<double> Histogram::default_latency_bounds_ms() {
  std::vector<double> bounds;
  for (double b = 0.25; b <= 8192.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1, 0),
      reservoir_state_(0x5eed5eed5eedULL) {
  STM_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bucket bounds must be ascending");
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  sum_ += v;
  if (samples_.size() < kReservoirCapacity) {
    samples_.push_back(v);
  } else {
    // Reservoir sampling keeps the percentile estimate unbiased under a
    // bounded memory footprint.
    const std::uint64_t slot = splitmix64(reservoir_state_) % n_;
    if (slot < kReservoirCapacity) samples_[slot] = v;
  }
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot s;
  s.count = n_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.bounds = bounds_;
  s.counts = counts_;
  if (!samples_.empty()) {
    s.p50 = percentile(samples_, 50.0);
    s.p95 = percentile(samples_, 95.0);
    s.p99 = percentile(samples_, 99.0);
  }
  return s;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    STM_CHECK_MSG(it->second->kind == kind,
                  "metric '" << name << "' re-registered with another type");
    return *it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  by_name_[name] = raw;
  return *raw;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  Entry& e = find_or_create(name, help, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  Entry& e = find_or_create(name, help, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds) {
  Entry& e = find_or_create(name, help, Kind::kHistogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

std::string MetricsRegistry::to_json() const {
  std::vector<Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const Entry* e : entries) {
    if (e->kind != Kind::kCounter) continue;
    out << (first ? "" : ",") << "\n    \"" << json_escape(e->name)
        << "\": " << e->counter->value();
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const Entry* e : entries) {
    if (e->kind != Kind::kGauge) continue;
    out << (first ? "" : ",") << "\n    \"" << json_escape(e->name)
        << "\": " << fmt_double(e->gauge->value());
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const Entry* e : entries) {
    if (e->kind != Kind::kHistogram) continue;
    const HistogramSnapshot s = e->histogram->snapshot();
    out << (first ? "" : ",") << "\n    \"" << json_escape(e->name) << "\": {"
        << "\"count\": " << s.count << ", \"sum\": " << fmt_double(s.sum)
        << ", \"min\": " << fmt_double(s.min)
        << ", \"max\": " << fmt_double(s.max)
        << ", \"p50\": " << fmt_double(s.p50)
        << ", \"p95\": " << fmt_double(s.p95)
        << ", \"p99\": " << fmt_double(s.p99) << ", \"buckets\": [";
    for (std::size_t b = 0; b < s.counts.size(); ++b) {
      out << (b == 0 ? "" : ", ") << "{\"le\": "
          << (b < s.bounds.size() ? fmt_double(s.bounds[b])
                                  : std::string("\"+Inf\""))
          << ", \"count\": " << s.counts[b] << "}";
    }
    out << "]}";
    first = false;
  }
  out << "\n  }\n}\n";
  return out.str();
}

std::string MetricsRegistry::to_prometheus() const {
  std::vector<Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  std::ostringstream out;
  // HELP/TYPE are per metric *family*: labeled series (`name{shard="0"}`)
  // share their family's header, emitted once at first encounter.
  std::set<std::string> announced;
  std::ostringstream dummy;
  for (const Entry* e : entries) {
    const std::string family = family_of(e->name);
    std::ostream& hdr = announced.insert(family).second ? out : dummy;
    if (!e->help.empty())
      hdr << "# HELP " << family << " " << e->help << "\n";
    switch (e->kind) {
      case Kind::kCounter:
        hdr << "# TYPE " << family << " counter\n";
        out << e->name << " " << e->counter->value() << "\n";
        break;
      case Kind::kGauge:
        hdr << "# TYPE " << family << " gauge\n";
        out << e->name << " " << fmt_double(e->gauge->value()) << "\n";
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = e->histogram->snapshot();
        hdr << "# TYPE " << family << " summary\n";
        out << e->name << "{quantile=\"0.5\"} " << fmt_double(s.p50) << "\n";
        out << e->name << "{quantile=\"0.95\"} " << fmt_double(s.p95) << "\n";
        out << e->name << "{quantile=\"0.99\"} " << fmt_double(s.p99) << "\n";
        out << e->name << "_sum " << fmt_double(s.sum) << "\n";
        out << e->name << "_count " << s.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

}  // namespace stm
