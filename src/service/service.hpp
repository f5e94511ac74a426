// GraphSession: the long-lived, multi-query serving core (DESIGN.md §8).
//
// A session owns one data graph, a plan cache (matching order / symmetry /
// code motion analysis done once per distinct pattern; plans read no data
// graph, so they survive updates), a metrics registry (JSON and Prometheus
// export) and the admission controller (bounded concurrent execution,
// priority FIFO queueing, load shedding) that queries and updates share.
// It composes the two paths that do the work:
//
//   query path   admission → plan → retry / breaker / fallback → engine,
//                for count queries and streams (service/query_path.hpp)
//   update path  writer lock → apply + WAL → publish → partition refresh →
//                standing deltas → checkpoint (service/update_path.hpp)
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/host_engine.hpp"
#include "core/query_stats.hpp"
#include "core/run.hpp"
#include "dist/partition.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "pattern/pattern.hpp"
#include "persist/manager.hpp"
#include "service/admission.hpp"
#include "service/metrics.hpp"
#include "service/plan_cache.hpp"
#include "service/query_path.hpp"
#include "service/resilience.hpp"
#include "service/standing.hpp"
#include "service/update_path.hpp"
#include "storage/store.hpp"

namespace stm {

// Streaming endpoints (service/stream.hpp).
class EmbeddingStream;
struct StreamRequest;
struct TopKOptions;
struct TopKResult;

struct QueryRequest {
  Pattern pattern;
  PlanOptions plan;
  EngineKind engine = EngineKind::kHost;
  QueryPriority priority = QueryPriority::kNormal;
  /// Wall-clock budget in ms, measured from submission (queue wait counts).
  /// 0 uses the session default; < 0 means no deadline.
  double deadline_ms = 0.0;
  /// Host-path execution knobs (num_threads=0 is clamped to the session's
  /// host_threads_per_query, not hardware concurrency — concurrency across
  /// queries comes from the dispatcher).
  HostEngineConfig host;
  /// SIMT-path device configuration.
  EngineConfig simt;
};

struct QueryResult {
  QueryStatus status = QueryStatus::kOk;
  /// Match count; partial when status is kDeadlineExceeded/kCancelled.
  std::uint64_t count = 0;
  /// Engine-side statistics (status mirrored into stats.status).
  QueryStats stats;
  bool plan_cache_hit = false;
  /// Milliseconds spent queued before execution started.
  double queue_ms = 0.0;
  /// Submission-to-completion wall clock, ms.
  double total_ms = 0.0;
  /// The engine that actually produced the result — may differ from
  /// QueryRequest::engine after fallback.
  EngineKind served_by = EngineKind::kHost;
  /// True when served_by != the requested engine (graceful degradation).
  bool degraded = false;
  /// Engine calls issued for this query across retries and fallbacks.
  std::uint32_t attempts = 1;
  /// Graph epoch the query executed against (its snapshot's version).
  std::uint64_t graph_epoch = 0;
  /// Human-readable detail; populated for every non-kOk status.
  std::string error;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// Result of one apply_updates call.
struct UpdateOutcome {
  QueryStatus status = QueryStatus::kOk;
  std::string error;
  /// Epoch after the batch (unchanged when the batch failed or was a no-op).
  std::uint64_t epoch = 0;
  UpdateStats stats;
  /// The effective delta the batch applied.
  DeltaEdges applied;
  /// Wall time of the whole update (apply + standing-query deltas), ms.
  double update_ms = 0.0;
  /// Wall time of the standing-query delta computations, ms.
  double incremental_ms = 0.0;
  /// Per-standing-query count deltas delivered for this batch.
  std::vector<StandingQueryUpdate> updates;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// Resilience policy knobs (see service/resilience.hpp, service/watchdog.hpp).
struct ResilienceConfig {
  RetryPolicy retry;
  /// Walk the degradation chain when the requested engine keeps failing.
  bool enable_fallback = true;
  CircuitBreaker::Config breaker;
  /// Kill queries whose progress stalls this long; <= 0 disables.
  double watchdog_stall_ms = 0.0;
  double watchdog_poll_ms = 10.0;
  /// Chaos for the dispatcher pool itself (FaultSite::kPoolTask).
  FaultConfig pool_fault;
};

/// Sharded execution mode of a session (DESIGN.md §11). With num_shards > 0
/// the session partitions the graph at construction, keeps the partition in
/// sync with applied update batches (halo refresh of the touched shards),
/// and serves edge-induced kSimt/kHost queries through the cross-shard
/// coordinator; other queries (vertex-induced, kReference, 1-vertex-graph
/// corner cases) transparently use the unsharded path.
struct ShardingConfig {
  /// 0 disables sharded execution.
  std::uint32_t num_shards = 0;
  dist::PartitionStrategy strategy = dist::PartitionStrategy::kContiguous;
  std::uint64_t hash_salt = 0;
  /// Shard-scheduler workers (0 = one per shard).
  std::uint32_t num_workers = 0;
  /// Cut edges per stealable anchor chunk.
  std::uint32_t cut_chunk_size = 16;
  /// Chaos for FaultSite::kShardFailure (shard-local runs and anchor chunks
  /// re-run with bumped incarnations).
  FaultConfig fault;

  bool enabled() const { return num_shards > 0; }
};

struct SessionConfig {
  /// Queries executing concurrently (dispatcher workers).
  std::size_t max_concurrent_queries = 4;
  /// Queries waiting beyond the concurrent ones before kOverloaded.
  std::size_t max_queued_queries = 32;
  std::size_t plan_cache_capacity = 64;
  /// Default per-query wall-clock budget (ms); 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Engine threads each host-path query runs on.
  std::size_t host_threads_per_query = 1;
  ResilienceConfig resilience;
  /// Chaos for the update path (FaultSite::kUpdateApply: a batch fails after
  /// validation, before its snapshot is published; the graph is unchanged).
  FaultConfig update_fault;
  /// Sharded execution mode (off by default).
  ShardingConfig sharding;
  /// Embedding streams open concurrently before open_stream sheds with
  /// kOverloaded. Streams are long-lived (each holds a producer thread and
  /// a pinned snapshot until closed), so they are admitted against this
  /// bound rather than the dispatcher pool. 0 = uncapped.
  std::size_t max_open_streams = 8;
  /// Durability (DESIGN.md §13): with a non-empty state directory, every
  /// applied batch and standing-query (de)registration is WAL-logged before
  /// acknowledgement, checkpoints snapshot the compacted graph + session
  /// manifest, and construction runs crash recovery against whatever the
  /// directory holds (checkpoint load + WAL tail replay).
  persist::PersistenceConfig persistence;
  /// Standing-query evaluation mode (DESIGN.md §16, service/standing.hpp).
  /// false: each registration runs its own IncrementalMatcher per batch
  /// (cost linear in registrations). true: ONE shared plan-trie
  /// pass per batch serves every registration, bit-identically. Indexed
  /// evaluation enumerates on the host recursion (StandingQueryConfig::engine
  /// is recorded, not consulted).
  bool standing_index = false;
  /// Graph-storage backend (DESIGN.md §14): kUncompressed serves the raw
  /// CSR; compressed backends re-encode the base graph (and every compacted
  /// successor) behind the GraphView seam, so engines never know which one
  /// they read. kAuto picks by degree histogram; a non-zero
  /// memory_budget_bytes selects the mmap/spill tier. Applied updates layer
  /// over the backend unchanged.
  storage::StoragePolicy storage;
};

class GraphSession {
 public:
  /// With SessionConfig::persistence enabled and prior state in the
  /// directory, `graph` is only the bootstrap seed: recovery loads the
  /// newest valid checkpoint (falling back to the previous one on a
  /// checksum mismatch) and replays the WAL tail batch-by-batch through the
  /// regular apply path, arriving at the exact pre-crash epoch and
  /// standing-query counts before the session accepts traffic.
  explicit GraphSession(Graph graph, SessionConfig cfg = {});
  ~GraphSession();

  /// Reopens a session purely from its persistence directory — no seed
  /// graph needed, because bootstrap installs checkpoint 1 immediately.
  /// Throws check_error when the directory holds no loadable checkpoint
  /// (construct with the seed graph instead; that path replays any WAL).
  static std::unique_ptr<GraphSession> restore(SessionConfig cfg);

  GraphSession(const GraphSession&) = delete;
  GraphSession& operator=(const GraphSession&) = delete;

  /// The seed CSR the session was created with (stable address; does not
  /// reflect applied updates — use snapshot() for the live version).
  const Graph& graph() const { return dyn_.base(); }
  const SessionConfig& config() const { return cfg_; }

  /// The current graph version. Queries submitted after this call may run
  /// on a newer version; a held snapshot stays valid and consistent.
  std::shared_ptr<const GraphSnapshot> snapshot() const {
    return dyn_.snapshot();
  }
  /// Current graph epoch (bumped per applied batch).
  std::uint64_t epoch() const { return dyn_.epoch(); }

  /// Asynchronous entry point. The future is always fulfilled — with
  /// kOverloaded immediately when admission rejects, with the query result
  /// otherwise.
  std::future<QueryResult> submit(QueryRequest req) {
    return queries_.submit(std::move(req));
  }

  /// Synchronous convenience wrapper: submit + wait.
  QueryResult run(QueryRequest req) { return submit(std::move(req)).get(); }

  /// Submits an update batch through admission (updates share the dispatcher
  /// pool with queries and are shed with kOverloaded under the same bounds).
  /// Batches are serialized by a writer lock; each applied batch bumps the
  /// epoch, publishes a new snapshot, and delivers count deltas to every
  /// standing query. A failed batch (validation or injected fault) leaves
  /// the graph untouched.
  std::future<UpdateOutcome> submit_updates(UpdateBatch batch);

  /// Synchronous convenience wrapper: submit_updates + wait.
  UpdateOutcome apply_updates(UpdateBatch batch) {
    return submit_updates(std::move(batch)).get();
  }

  /// Rebuilds the CSR from the current version (same logical graph, same
  /// epoch). Serialized with updates.
  void compact() { updates_.compact(); }

  /// Installs a durable checkpoint of the current state (compacted CSR +
  /// epoch + standing-query manifest) and truncates the WAL it covers.
  /// Serialized with updates. Returns false when an injected
  /// kCheckpointWrite budget was exhausted — the session keeps running on
  /// WAL durability alone. Requires SessionConfig::persistence.
  bool checkpoint() { return updates_.checkpoint(); }

  /// What crash recovery did at construction (all-default when persistence
  /// is off or the state directory was fresh).
  const persist::RecoveryReport& recovery_report() const {
    return updates_.recovery_report();
  }

  /// Opens an embedding stream (service/stream.hpp): the query's matched
  /// embeddings, delivered in the deterministic global order, pulled by the
  /// caller. Never blocks: admission failure (max_open_streams), an invalid
  /// resume token, or a plan-compilation error yield a handle whose stream
  /// is already terminal with the corresponding status. Streams execute a
  /// single attempt on the requested engine and bypass sharded execution.
  std::unique_ptr<EmbeddingStream> open_stream(StreamRequest req);

  /// Runs the query as a full embedding stream and keeps the k best
  /// embeddings under opts.score (ties broken by stream order, so the
  /// result is deterministic). Blocks until the enumeration completes.
  TopKResult top_k(const QueryRequest& req, const TopKOptions& opts);

  /// Registers a pattern for per-batch count deltas. The baseline count is
  /// one full enumeration on the current snapshot (indexed: a canonical-group
  /// sibling's count when there is one). Throws check_error for unsupported
  /// options (e.g. vertex-induced matching) before any enumeration. With
  /// persistence, the registration is WAL-logged (baseline count included)
  /// before it takes effect; an exhausted kWalAppend budget throws
  /// FaultInjectedError and registers nothing.
  std::uint64_t register_standing_query(StandingQueryConfig cfg) {
    return updates_.register_standing(std::move(cfg));
  }
  /// Removes a standing query; false when the id is unknown. With
  /// persistence, the removal is WAL-logged first (and serialized with the
  /// update path, like registration).
  bool unregister_standing_query(std::uint64_t id) {
    return updates_.unregister_standing(id);
  }
  /// Current state of a standing query, if registered.
  std::optional<StandingQueryInfo> standing_query(std::uint64_t id) const {
    return updates_.standing().info(id);
  }

  /// Shared-index observability: registrations, canonical groups, and trie
  /// shape (all-zero when SessionConfig::standing_index is off).
  mqo::IndexStats standing_index_stats() const {
    return updates_.standing().index_stats();
  }

  /// Blocks until every submitted query has completed.
  void drain() { admission_.drain(); }

  /// Cancels every queued and running query (they complete with
  /// kCancelled). New submissions are unaffected.
  void cancel_all() { queries_.cancel_all(); }

  PlanCache& plan_cache() { return plan_cache_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Current breaker state for an engine (test/observability hook).
  CircuitBreaker::State breaker_state(EngineKind kind) {
    return queries_.breaker_state(kind);
  }

 private:
  /// `rec` (UpdatePath::recover) holds the graph to build the session from:
  /// the checkpointed CSR at its epoch when recovery found one.
  GraphSession(SessionConfig cfg, UpdatePath::Recovery rec);

  MutableGraph dyn_;
  SessionConfig cfg_;
  PlanCache plan_cache_;
  MetricsRegistry metrics_;
  UpdatePath updates_;
  QueryPath queries_;
  // Declared last: its worker threads run both paths' jobs, and members
  // destruct in reverse order, so the pool is gone before anything it uses.
  AdmissionController admission_;
};

}  // namespace stm
