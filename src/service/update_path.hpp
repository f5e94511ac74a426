// The write side of GraphSession (DESIGN.md §8, §10, §13). One update batch
// runs, on a dispatcher worker,
//
//   writer lock ──► MutableGraph::apply ──► WAL append ──► publish
//     ──► partition refresh ──► StandingRegistry::apply ──► checkpoint?
//
// The writer lock also serializes recovery replay (in the constructor),
// standing-query (un)registration, compact() and checkpoint(); it is never
// held while an engine runs a count query. The path owns the durability
// stack, the standing queries, the update/persist metrics, and what each
// published version derives: the sharded partition and the storage gauges.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "dist/partition.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "persist/manager.hpp"
#include "service/metrics.hpp"
#include "service/plan_cache.hpp"
#include "service/standing.hpp"

namespace stm {

struct SessionConfig;
struct UpdateOutcome;

class UpdatePath {
 public:
  /// Durable state read before the session's graph exists, so the graph can
  /// be built directly at the checkpointed epoch: the checkpointed CSR when
  /// recovery found one (the seed otherwise), its epoch, and the WAL tail
  /// the constructor replays. No manager when persistence is off.
  struct Recovery {
    Graph graph;
    std::uint64_t start_epoch = 0;
    std::unique_ptr<persist::PersistenceManager> manager;
    persist::RecoveredState state;
  };
  static Recovery recover(Graph seed, const persist::PersistenceConfig& cfg);

  /// Replays `rec`'s WAL tail batch-by-batch, installs checkpoint 1 in a
  /// fresh state directory, then arms the update fault injector and builds
  /// the partition. `graph` was built from `rec.graph`.
  UpdatePath(MutableGraph& graph, const SessionConfig& cfg, PlanCache& plans,
             MetricsRegistry& metrics, Recovery rec);

  UpdateOutcome apply(const UpdateBatch& batch);
  void compact();
  bool checkpoint();
  std::uint64_t register_standing(StandingQueryConfig cfg);
  bool unregister_standing(std::uint64_t id);

  const StandingRegistry& standing() const { return standing_; }
  const persist::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  /// Sharded mode: the partition and the snapshot it was built from, swapped
  /// atomically so a query always sees a matched pair. Null unsharded.
  struct ShardState {
    std::shared_ptr<const GraphSnapshot> snapshot;
    std::shared_ptr<const dist::Partition> partition;
  };
  std::shared_ptr<const ShardState> partition() const;

  /// Publishes the storage gauges/counters from the current snapshot's
  /// backend (after every query, batch and compact), and trims its decoded-
  /// list cache back under the policy budget when no query holds a lease.
  void refresh_storage_metrics();

 private:
  /// (Re)builds the partition for `snap` and publishes it with the per-shard
  /// gauges; `delta` refreshes instead of rebuilding when non-null.
  void rebuild_shards(std::shared_ptr<const GraphSnapshot> snap,
                      const DeltaEdges* delta);
  /// checkpoint() body; caller holds mu_.
  bool checkpoint_locked();
  /// Folds one WAL append into the byte and fault counters (a repaired
  /// append counts as one recovered unit).
  void record_wal_append(const persist::WalAppendResult& res);

  MutableGraph& graph_;
  const SessionConfig& cfg_;
  MetricsRegistry& metrics_;

  /// The writer lock.
  std::mutex mu_;
  /// Durability stack (null without SessionConfig::persistence).
  std::unique_ptr<persist::PersistenceManager> persist_;
  persist::RecoveryReport recovery_report_;
  std::uint32_t batches_since_checkpoint_ = 0;  // guarded by mu_
  /// Standing queries; their mutators run under mu_.
  StandingRegistry standing_;

  mutable std::mutex shard_mu_;
  std::shared_ptr<const ShardState> shard_state_;

  /// Last store-cumulative counter values folded into the monotone storage
  /// counters, keyed to the store they came from. Guarded by storage_mu_.
  std::mutex storage_mu_;
  std::weak_ptr<const storage::GraphStore> storage_store_;
  std::uint64_t page_faults_seen_ = 0;
  std::uint64_t decode_ops_seen_ = 0;

  // Cached metric handles (registry entries have stable addresses).
  Counter& updates_applied_ = metrics_.counter(
      "updates_applied", "Update batches applied (epoch bumps)");
  Counter& updates_failed_ = metrics_.counter(
      "updates_failed", "Update batches rejected or failed pre-publish");
  Counter& edges_inserted_ = metrics_.counter(
      "edges_inserted", "Edges effectively inserted across batches");
  Counter& edges_deleted_ = metrics_.counter(
      "edges_deleted", "Edges effectively deleted across batches");
  Counter& wal_appended_bytes_ = metrics_.counter(
      "wal_appended_bytes_total",
      "Durable write-ahead-log bytes appended (intact frames only)");
  Counter& checkpoints_written_ =
      metrics_.counter("checkpoints_written", "Durable checkpoints installed");
  Counter& checkpoint_failures_ = metrics_.counter(
      "checkpoint_failures",
      "Checkpoint installs abandoned (chaos budget exhausted)");
  Counter& faults_injected_total_ = metrics_.counter(
      "faults_injected_total", "Injected faults observed across queries");
  Counter& recovery_units_total_ = metrics_.counter(
      "recovery_units_total", "Work units recovered after injected faults");
  Counter& storage_page_faults_ = metrics_.counter(
      "storage_page_faults_total",
      "Spill-tier page-cache misses (pages fetched from disk)");
  Counter& storage_decode_ops_ = metrics_.counter(
      "storage_decode_ops_total",
      "Adjacency lists decoded from a compressed storage backend");
  Gauge& graph_epoch_ = metrics_.gauge("graph_epoch", "Current graph version");
  Gauge& shard_imbalance_ = metrics_.gauge(
      "shard_imbalance",
      "Max/mean per-shard edge load (intra + half incident cut)");
  Gauge& cut_edge_fraction_ = metrics_.gauge(
      "cut_edge_fraction", "Cut edges / total edges of the partition");
  Gauge& storage_resident_bytes_ = metrics_.gauge(
      "storage_resident_bytes",
      "Bytes the storage backend holds in memory now");
  Gauge& graph_resident_bytes_ = metrics_.gauge(
      "graph_resident_bytes",
      "Resident bytes of the current graph version (backend + overlays)");
  Gauge& compression_ratio_ = metrics_.gauge(
      "compression_ratio",
      "Raw CSR bytes over encoded bytes (1 when uncompressed)");
  Histogram& update_latency_ms_ = metrics_.histogram(
      "update_latency_ms", "apply_updates wall time per batch");
  Histogram& checkpoint_duration_ms_ = metrics_.histogram(
      "checkpoint_duration_ms",
      "Durable checkpoint install wall time (snapshot + fsync + rename)");
};

}  // namespace stm
