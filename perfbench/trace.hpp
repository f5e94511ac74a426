// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a layer of the library: name ("<layer>.<function>"), start,
// end, parent span and request id. They stay in memory and are written out
// once, when the run ends. A disabled tracer records nothing; its scopes
// cost one branch.
//
// Nesting is per thread: a scope opened while another scope of the same
// thread is open becomes its child. A layer's self time is its spans'
// durations minus the time covered by their children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::string name;
  double start_us = 0.0;  // since the tracer was created
  double end_us = 0.0;
};

struct LayerTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed and recorded on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  std::size_t size() const;
  /// Writes one JSON object per span (JSON Lines).
  void write_jsonl(const std::string& path) const;
  /// Self and total time per layer (the span-name prefix before '.').
  std::map<std::string, LayerTime> layer_times() const;

 private:
  double now_us() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

}  // namespace perfbench
