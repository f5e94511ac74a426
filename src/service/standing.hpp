// StandingRegistry: the session's standing queries (DESIGN.md §16) — the
// registrations, their id space, the shared-prefix pattern index and the
// standing-query metrics. Register, apply, unregister and restore are each
// written once; the evaluation mode selects only two things, and both modes
// deliver bit-identical updates:
//
//   baseline source  indexed: a canonical-group sibling's count, converted
//                    (a group's first member enumerates); per-pattern: one
//                    full host_match per registration.
//   delta source     indexed: ONE MultiQueryEvaluator pass per batch, then
//                    PatternIndex::project; per-pattern: each registration's
//                    own IncrementalMatcher (count_delta, plus
//                    embedding_delta for on_delta).
//
// Mutators must be serialized by the caller (the session's writer lock);
// the readers (info, index_stats, manifest) may run concurrently. apply()
// calls subscribers after releasing the registry lock, so they may read.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/emit.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "mqo/pattern_index.hpp"
#include "pattern/pattern.hpp"
#include "persist/checkpoint.hpp"
#include "service/metrics.hpp"
#include "service/plan_cache.hpp"

namespace stm {

/// Delivered to a standing query's subscriber (and collected into the
/// UpdateOutcome) once per applied batch.
struct StandingQueryUpdate {
  std::uint64_t query_id = 0;
  /// Epoch after the batch.
  std::uint64_t epoch = 0;
  /// Exact match-count change caused by the batch.
  std::int64_t delta = 0;
  /// Cumulative match count after the batch.
  std::uint64_t count = 0;
  /// Wall time of this query's delta computation, ms.
  double delta_ms = 0.0;
};

/// Delivered to a standing query's on_delta subscriber once per applied
/// batch: the exact embedding-level change the batch caused. Embeddings are
/// in original-pattern vertex order, lexicographically sorted within each
/// list; added and retracted are disjoint (an effective delta never both
/// deletes and inserts the same edge).
struct StandingQueryDelta {
  std::uint64_t query_id = 0;
  /// Epoch after the batch.
  std::uint64_t epoch = 0;
  /// Matches of the post-batch graph that did not exist before.
  std::vector<Embedding> added;
  /// Pre-batch matches destroyed by the batch.
  std::vector<Embedding> retracted;
  /// Wall time of this query's embedding-delta computation, ms.
  double delta_ms = 0.0;
};

struct StandingQueryConfig {
  Pattern pattern;
  /// Count semantics (induced must be kEdge; see IncrementalMatcher).
  PlanOptions plan;
  /// Engine for the anchored delta enumerations.
  DeltaEngine engine = DeltaEngine::kHost;
  /// Optional subscriber, invoked synchronously per applied batch from the
  /// update path, after the batch's standing state is final (keep it cheap;
  /// it runs under the session's writer lock). It may call the session's
  /// readers — standing_query, standing_index_stats, snapshot, epoch,
  /// metrics — but not apply_updates, register_standing_query,
  /// unregister_standing_query or checkpoint, which wait for the writer lock
  /// the subscriber runs under.
  std::function<void(const StandingQueryUpdate&)> on_update;
  /// Optional embedding-level subscriber: the added/retracted embeddings of
  /// each batch, not just the count delta. Requires count_mode ==
  /// kEmbeddings (registration throws check_error otherwise — "a subgraph
  /// was retracted" is ill-defined at embedding granularity). Invoked
  /// synchronously from the update path, after on_update, under the same
  /// contract.
  std::function<void(const StandingQueryDelta&)> on_delta;
};

struct StandingQueryInfo {
  std::uint64_t id = 0;
  Pattern pattern;
  /// Current cumulative count (initial full enumeration + batch deltas).
  std::uint64_t count = 0;
  /// Epoch the count is valid for.
  std::uint64_t epoch = 0;
  std::uint64_t batches_observed = 0;
  /// Wall time of the registration-time full enumeration, ms — the baseline
  /// of the delta-vs-full speedup gauge.
  double full_ms = 0.0;
};

/// One live batch's standing-query results (StandingRegistry::apply).
struct StandingBatch {
  /// Every registration's update, in id order.
  std::vector<StandingQueryUpdate> updates;
  /// Wall time of the delta computations, ms.
  double ms = 0.0;
};

class StandingRegistry {
 public:
  /// Runs before a (de)registration takes effect — the session's WAL
  /// append. A throw leaves the registry and its id space untouched.
  using WalHook = std::function<void(const persist::StandingEntry&)>;

  /// `indexed` selects the evaluation mode; baselines compile through
  /// `plans` and enumerate on `baseline_threads` host threads. The standing
  /// metrics are registered in `metrics`.
  StandingRegistry(bool indexed, std::size_t baseline_threads,
                   PlanCache& plans, MetricsRegistry& metrics);

  /// Validates `cfg` (before any enumeration or hook call), establishes the
  /// baseline count on `snap`, runs `log` (when set) and installs the query.
  /// Throws check_error for what anchored enumeration cannot serve.
  std::uint64_t register_query(StandingQueryConfig cfg,
                               const std::shared_ptr<const GraphSnapshot>& snap,
                               const WalHook& log);

  /// Advances every registration past the batch `applied` took `from` to
  /// `epoch`, then invokes the subscribers in id order (on_update before
  /// on_delta) with the registry lock released. `out` is null during WAL
  /// replay: nothing to collect, no latency to record.
  void apply(const std::shared_ptr<const GraphSnapshot>& from,
             const DeltaEdges& applied, std::uint64_t epoch,
             StandingBatch* out);

  /// Removes `id` after running `log` (when set); false when unknown.
  bool unregister(std::uint64_t id, const WalHook& log);

  /// Re-creates registrations from their durable entries (a checkpoint
  /// manifest or one WAL record); an existing id is replaced. Counts are
  /// restored, not recomputed; subscribers do not survive a restart. Ids
  /// below `next_id` count as spent.
  void restore(const std::vector<persist::StandingEntry>& entries,
               std::uint64_t next_id);

  std::optional<StandingQueryInfo> info(std::uint64_t id) const;
  /// Shared-index shape (all-zero in per-pattern mode).
  mqo::IndexStats index_stats() const;
  /// Fills the checkpoint manifest: every registration and the id watermark.
  void manifest(persist::CheckpointData* data) const;

 private:
  struct Query {
    StandingQueryConfig cfg;
    /// Per-pattern delta source (null in indexed mode).
    std::shared_ptr<const IncrementalMatcher> matcher;
    std::uint64_t count = 0;
    std::uint64_t epoch = 0;
    std::uint64_t batches = 0;
    double full_ms = 0.0;
  };

  /// Baseline source: the registration's count on `snap`; *full_ms is the
  /// wall time of a full enumeration (0 when none ran).
  std::uint64_t baseline(const StandingQueryConfig& cfg,
                         const GraphSnapshot& snap, double* full_ms) const;
  /// Delta source, per registration: builds its matcher or adds it to the
  /// index, then stores it. Caller holds mu_.
  void install(std::uint64_t id, Query q);
  static persist::StandingEntry entry(std::uint64_t id, const Query& q);
  /// Publishes the registration and index gauges. Caller holds mu_.
  void publish_gauges();

  const bool indexed_;
  const std::size_t baseline_threads_;
  PlanCache& plans_;
  MetricsRegistry& metrics_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Query> queries_;
  mqo::PatternIndex index_;  // empty in per-pattern mode
  std::uint64_t next_id_ = 1;

  Gauge& standing_queries_ =
      metrics_.gauge("standing_queries", "Registered standing queries");
  Gauge& standing_patterns_ = metrics_.gauge(
      "standing_patterns",
      "Distinct canonical pattern groups in the standing-query index");
  Gauge& trie_nodes_ =
      metrics_.gauge("trie_nodes", "Nodes of the shared-prefix plan trie");
  Gauge& shared_prefix_ratio_ = metrics_.gauge(
      "shared_prefix_ratio",
      "Fraction of per-plan enumeration levels served by a shared trie "
      "prefix (1 - nodes / plan positions)");
  Gauge& delta_speedup_ = metrics_.gauge(
      "delta_vs_full_speedup",
      "Registration-time full-enumeration ms / last batch delta ms");
  Histogram& incremental_latency_ms_ = metrics_.histogram(
      "incremental_latency_ms",
      "Standing-query delta computation time per batch");
  Histogram& indexed_delta_latency_ms_ = metrics_.histogram(
      "indexed_delta_latency_ms",
      "Shared trie-pass wall time per batch (serves every standing query at "
      "once; indexed mode only)");
};

}  // namespace stm
