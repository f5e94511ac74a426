#include "common.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"
#include "setops/simd.hpp"
#include "util/timer.hpp"

namespace perfbench {

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void write_metrics(std::ostringstream& os,
                   const std::map<std::string, Metric>& metrics) {
  os << '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    os << (first ? "" : ",") << '"' << name << "\":{\"value\":" << value
       << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  os << '}';
}

void write_strings(std::ostringstream& os,
                   const std::map<std::string, std::string>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << '"' << k << "\":\"" << json_escape(v) << '"';
    first = false;
  }
  os << '}';
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"workload\":\"" << workload << "\",\"attempted\":" << attempted
     << ",\"ok\":" << ok << ",\"missed\":" << missed
     << ",\"failed\":" << failed << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(failures[i]) << '"';
  os << "],\"end_to_end\":";
  write_metrics(os, end_to_end);
  os << ",\"gated\":";
  write_metrics(os, gated);
  os << ",\"per_layer\":";
  write_metrics(os, per_layer);
  os << ",\"layer_time\":";
  write_metrics(os, layer_time);
  os << ",\"dropped\":";
  write_strings(os, dropped);
  os << ",\"info\":";
  write_strings(os, info);
  os << '}';
  return os.str();
}

double pct(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sample.size()) return sample.back();
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] * (1.0 - frac) + sample[lo + 1] * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Windowed windowed(std::vector<Sample> samples, std::size_t round,
                  double end_s, double tail_pct) {
  constexpr std::size_t kWindows = 5;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.seq < b.seq; });
  const std::size_t rounds = samples.size() / std::max<std::size_t>(round, 1);
  const std::size_t windows = std::min(kWindows, rounds);
  std::vector<double> rate, p50, tail;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = rounds * w / windows * round;
    const std::size_t hi = rounds * (w + 1) / windows * round;
    const double t0 = samples[lo].sent_s;
    const double t1 = hi < samples.size() ? samples[hi].sent_s : end_s;
    std::vector<double> latency;
    double good = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (samples[i].timed) latency.push_back(samples[i].latency_ms);
      good += samples[i].good ? 1 : 0;
    }
    rate.push_back(t1 > t0 ? good / (t1 - t0) : 0.0);
    p50.push_back(pct(latency, 50));
    tail.push_back(pct(latency, tail_pct));
  }
  return {median(rate), median(p50), median(tail)};
}

PlanOptions unique_subgraphs() {
  PlanOptions opts;
  opts.count_mode = stm::CountMode::kUniqueSubgraphs;
  return opts;
}

stm::QueryRequest make_request(int query, double deadline_ms) {
  stm::QueryRequest req;
  req.pattern = stm::query(query);
  req.plan = unique_subgraphs();
  req.engine = stm::EngineKind::kHost;
  req.deadline_ms = deadline_ms;
  return req;
}

Deck::Deck(std::vector<int> queries, std::uint64_t seed)
    : queries_(std::move(queries)), rng_(seed) {}

int Deck::at(std::uint64_t i) {
  while (drawn_.size() <= i) {
    std::vector<int> round = queries_;
    rng_.shuffle(round);
    drawn_.insert(drawn_.end(), round.begin(), round.end());
  }
  return drawn_[i];
}

Ticketer::Ticketer(Deck deck, double seconds)
    : deck_(std::move(deck)),
      seconds_(seconds),
      start_(std::chrono::steady_clock::now()) {}

double Ticketer::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

bool Ticketer::next(std::uint64_t* ticket, int* query) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_at_ == ~0ULL && elapsed_s() >= seconds_) {
    const std::uint64_t r = deck_.round();
    stop_at_ = (next_ + r - 1) / r * r;
  }
  if (next_ >= stop_at_) return false;
  *ticket = next_;
  *query = deck_.at(next_);
  ++next_;
  return true;
}

std::shared_ptr<const MatchingPlan> compile(int query) {
  return std::make_shared<const MatchingPlan>(
      stm::reorder_for_matching(stm::query(query)), unique_subgraphs());
}

Reference reference_count(const GraphSnapshot& snap, int query) {
  const auto plan = compile(query);
  const auto lease = snap.storage_lease();
  const stm::GraphView view = snap.view();
  const stm::HostEngineConfig defaults;
  Reference ref;
  stm::Timer total;
  for (VertexId v = 0; v < view.num_vertices(); v += defaults.chunk_size) {
    const VertexId end = std::min<VertexId>(
        view.num_vertices(), v + defaults.chunk_size);
    stm::Timer chunk;
    ref.count += stm::recursive_count_range(view, *plan, v, end,
                                            &ref.counters);
    ref.chunk_ms.push_back(chunk.elapsed_ms());
  }
  ref.ms = total.elapsed_ms();
  return ref;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::min(threads, n); ++t)
    pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

std::vector<Reference> reference_counts(const std::vector<RefTask>& tasks,
                                        Tracer& tracer) {
  std::vector<Reference> out(tasks.size());
  parallel_for(tasks.size(), std::thread::hardware_concurrency(),
               [&](std::size_t i) {
                 const auto span = tracer.span("core.reference", i);
                 out[i] = reference_count(*tasks[i].snap, tasks[i].query);
               });
  return out;
}

void check_query(const QueryResult& r, int query, std::uint64_t reference,
                 Report& report) {
  ++report.attempted;
  const std::string q = std::string("q").append(std::to_string(query));
  switch (r.status) {
    case stm::QueryStatus::kOk:
      if (r.count == reference) {
        ++report.ok;
      } else {
        report.fail(q + " at epoch " + std::to_string(r.graph_epoch) +
                    " counted " + std::to_string(r.count) + ", reference " +
                    std::to_string(reference));
      }
      break;
    case stm::QueryStatus::kDeadlineExceeded:
      if (r.count <= reference) {
        ++report.missed;
      } else {
        report.fail(q + " partial count " + std::to_string(r.count) +
                    " exceeds reference " + std::to_string(reference));
      }
      break;
    case stm::QueryStatus::kOverloaded:
      ++report.missed;
      break;
    default:
      report.fail(q + " " + stm::to_string(r.status) + ": " + r.error);
  }
}

std::uint64_t FlatBatchGenerator::key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

FlatBatchGenerator::FlatBatchGenerator(const Graph& g, std::uint64_t seed)
    : rng_(seed) {
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors(u))
      if (u < v) {
        edges_.emplace_back(u, v);
        present_.insert(key(u, v));
      }
}

UpdateBatch FlatBatchGenerator::next(std::size_t swaps) {
  UpdateBatch batch;
  // Edges deleted or inserted by this batch: none may be touched twice, or
  // the batch would not apply exactly 2 * swaps edges each way.
  std::unordered_set<std::uint64_t> touched;
  while (batch.deletions.size() < 2 * swaps) {
    const std::size_t i = rng_.next_below(edges_.size());
    const std::size_t j = rng_.next_below(edges_.size());
    const auto [a, b] = edges_[i];
    auto [c, d] = edges_[j];
    if (rng_() & 1) std::swap(c, d);
    // (a, b), (c, d) -> (a, d), (c, b): four distinct vertices, and both
    // new edges absent.
    if (i == j || a == c || a == d || b == c || b == d) continue;
    const std::uint64_t old1 = key(a, b), old2 = key(c, d);
    const std::uint64_t new1 = key(a, d), new2 = key(c, b);
    if (touched.contains(old1) || touched.contains(old2) ||
        touched.contains(new1) || touched.contains(new2) ||
        present_.contains(new1) || present_.contains(new2))
      continue;
    touched.insert({old1, old2, new1, new2});
    present_.erase(old1);
    present_.erase(old2);
    present_.insert(new1);
    present_.insert(new2);
    batch.deletions.push_back(edges_[i]);
    batch.deletions.push_back(edges_[j]);
    edges_[i] = {std::min(a, d), std::max(a, d)};
    edges_[j] = {std::min(c, b), std::max(c, b)};
    batch.insertions.push_back(edges_[i]);
    batch.insertions.push_back(edges_[j]);
  }
  return batch;
}

namespace {

/// Keeps the calibration loop's result observable.
volatile std::uint64_t g_calibration_sink = 0;

std::string filesystem_name(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

}  // namespace

void fingerprint(const std::string& state_dir, Report& report) {
  namespace simd = stm::simd;
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.info["isa_active"] = simd::to_string(simd::active_isa());
  std::string supported;
  for (const auto level : {simd::IsaLevel::kScalar, simd::IsaLevel::kSse42,
                           simd::IsaLevel::kAvx2}) {
    if (!simd::is_supported(level)) continue;
    if (!supported.empty()) supported += ',';
    supported += simd::to_string(level);
  }
  report.info["isa_supported"] = supported;
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  report.info["compiler"] = PERFBENCH_COMPILER;
  report.info["state_fs"] = filesystem_name(state_dir);
  // This machine's single-thread speed right now: a fixed integer loop,
  // median of 5 (ms). Shared hosts drift by tens of percent over minutes;
  // read wall-clock differences between runs with this in view.
  std::vector<double> reps;
  std::uint64_t state = 0;
  for (int rep = 0; rep < 5; ++rep) {
    stm::Timer t;
    for (int i = 0; i < (1 << 21); ++i) state ^= stm::splitmix64(state);
    reps.push_back(t.elapsed_ms());
  }
  g_calibration_sink = state;
  report.info["calibration_ms"] = std::to_string(median(reps));
}

}  // namespace perfbench
