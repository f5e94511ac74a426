// Shared pieces of the benchmark program: arguments, the per-run report, the
// seeded request decks, reference counting for the correctness gate, the
// stationary update-batch generator and the run fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/recursive.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "pattern/plan.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using stm::Graph;
using stm::GraphSnapshot;
using stm::MatchingPlan;
using stm::PlanOptions;
using stm::QueryResult;
using stm::UpdateBatch;
using stm::VertexId;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the report and span files go.
  std::string out_dir = ".";
  /// Scratch space (session state directories); removed by the caller.
  std::string work_dir = ".";
};

/// Set-up (graph build, session construction, registrations, warm-up) runs
/// this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. Filled single-threaded after the
/// timed phase.
struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  /// Shed (kOverloaded) or deadline-exceeded: refused, not wrong.
  std::uint64_t missed = 0;
  /// Wrong count, or any error other than shed/deadline.
  std::uint64_t failed = 0;
  /// First few failure descriptions.
  std::vector<std::string> failures;
  /// End-to-end metrics under the workload's own names (query_p50_ms, ...).
  std::map<std::string, Metric> end_to_end;
  /// The same numbers under the workload-independent names BENCHMARK.json
  /// gates on (p50_ms, tail_ms, throughput_per_s, ...).
  std::map<std::string, Metric> gated;
  std::map<std::string, Metric> per_layer;
  /// Traced run only: total and self time per layer, from the spans.
  std::map<std::string, Metric> layer_time;
  /// Per-layer metrics that could not be measured, with the reason.
  std::map<std::string, std::string> dropped;
  std::map<std::string, std::string> info;

  void fail(const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void gate(const std::string& name, double value, const std::string& unit) {
    gated[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  std::string to_json() const;
};

// ---- statistics ---------------------------------------------------------

/// Linearly interpolated percentile, p in [0, 100]; 0 for an empty sample.
double pct(std::vector<double> sample, double p);
inline double median(std::vector<double> sample) {
  return pct(std::move(sample), 50.0);
}
double peak_rss_mb();

/// One timed operation of a workload's timed phase.
struct Sample {
  /// Send order (deck ticket, arrival index or batch number).
  std::uint64_t seq = 0;
  /// When it was sent (closed loop) or due (open loop), seconds since the
  /// timed phase started.
  double sent_s = 0.0;
  double latency_ms = 0.0;
  /// Part of the latency sample.
  bool timed = true;
  /// Counts toward the throughput.
  bool good = true;
};

/// A workload's headline numbers, each the median over 5 windows of the
/// timed phase. Windows are contiguous runs of whole rounds in send order
/// (`round` operations each: one deck round, or one checkpoint cycle), so
/// every window holds the same mix, and a slow spell of the shared machine
/// in one window does not move the result.
struct Windowed {
  double rate_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
};
Windowed windowed(std::vector<Sample> samples, std::size_t round,
                  double end_s, double tail_pct);

// ---- requests -----------------------------------------------------------

/// Every count in the benchmark is unique subgraphs (symmetry broken).
PlanOptions unique_subgraphs();
stm::QueryRequest make_request(int query, double deadline_ms);

/// A seeded stream of query ids: whole rounds, each a fresh shuffle of
/// `queries`. Every id is equally likely at any position, and a prefix that
/// ends on a round boundary holds every id equally often, so percentiles do
/// not jump between patterns from one seed to the next.
class Deck {
 public:
  Deck(std::vector<int> queries, std::uint64_t seed);
  int at(std::uint64_t i);
  std::size_t round() const { return queries_.size(); }

 private:
  std::vector<int> queries_;
  stm::Rng rng_;
  std::vector<int> drawn_;
};

/// Hands out request tickets from a Deck to concurrent closed-loop clients.
/// Once `seconds` have passed it stops at the next round boundary, so the
/// measured mix is balanced.
class Ticketer {
 public:
  Ticketer(Deck deck, double seconds);
  /// False once the run is over; otherwise the ticket number and query.
  bool next(std::uint64_t* ticket, int* query);
  double elapsed_s() const;

 private:
  std::mutex mu_;
  Deck deck_;  // guarded by mu_
  std::uint64_t next_ = 0;  // guarded by mu_
  std::uint64_t stop_at_ = ~0ULL;  // guarded by mu_
  const double seconds_;
  const std::chrono::steady_clock::time_point start_;
};

// ---- correctness gate ---------------------------------------------------

/// Compiles the plan the way the service does (matching order, then plan).
std::shared_ptr<const MatchingPlan> compile(int query);

struct Reference {
  std::uint64_t count = 0;
  stm::RecursiveCounters counters;
  double ms = 0.0;
  /// Wall time of each host-engine chunk range ([v, v + chunk_size)).
  std::vector<double> chunk_ms;
};

/// Single-threaded reference count of `query` on `snap`, chunk by chunk.
Reference reference_count(const GraphSnapshot& snap, int query);

/// Runs fn(0..n-1) on up to `threads` threads; rethrows the first error.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Reference counts for (query, snapshot) tasks, computed in parallel.
struct RefTask {
  int query = 0;
  std::shared_ptr<const GraphSnapshot> snap;
};
std::vector<Reference> reference_counts(const std::vector<RefTask>& tasks,
                                        Tracer& tracer);

/// Checks one served query against its reference: ok must match exactly,
/// a deadline-exceeded partial count must not exceed it, shed requests are
/// missed; anything else fails.
void check_query(const QueryResult& r, int query, std::uint64_t reference,
                 Report& report);

// ---- update batches -----------------------------------------------------

/// Seeded generator of flat update batches made of degree-preserving double
/// edge swaps: (a, b), (c, d) -> (a, d), (c, b), with both old edges drawn
/// uniformly. Each swap deletes two existing edges and inserts two non-edges,
/// so |E| and every vertex's degree stay exactly constant, and the graph's
/// cost profile does not drift over a long run. (Uniform deletions with
/// degree-proportional insertions keep degrees flat only in expectation;
/// hubs then random-walk upwards and count costs grow several-fold within a
/// few hundred batches.) Keeps its own mirror of the edge set; the program
/// only sees the batches.
class FlatBatchGenerator {
 public:
  FlatBatchGenerator(const Graph& g, std::uint64_t seed);
  /// A batch of `swaps` swaps: 2 * swaps deletions and 2 * swaps insertions.
  UpdateBatch next(std::size_t swaps);

 private:
  static std::uint64_t key(VertexId u, VertexId v);
  stm::Rng rng_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::unordered_set<std::uint64_t> present_;
};

// ---- environment --------------------------------------------------------

/// nproc, ISA levels, build type, compiler and the state directory's
/// filesystem.
void fingerprint(const std::string& state_dir, Report& report);

}  // namespace perfbench
