#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_span_id{1};
thread_local std::uint64_t t_current_span = 0;

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_span;
  span_.request = request;
  span_.name = name;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_us = tracer.now_us();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->now_us();
  t_current_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start_us, s.end_us);
  }
  std::fclose(f);
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on the parent's thread, strictly nested and
  // sequential, so the time they cover is the sum of their durations.
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans_)
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    LayerTime& lt = out[layer_of(s.name)];
    const double dur = s.end_us - s.start_us;
    const auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    lt.total_ms += dur / 1e3;
    lt.self_ms += std::max(0.0, dur - covered) / 1e3;
  }
  return out;
}

}  // namespace perfbench
