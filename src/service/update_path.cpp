#include "service/update_path.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "service/service.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

UpdatePath::Recovery UpdatePath::recover(
    Graph seed, const persist::PersistenceConfig& cfg) {
  Recovery rec;
  rec.graph = std::move(seed);
  if (cfg.enabled()) {
    rec.manager = std::make_unique<persist::PersistenceManager>(cfg);
    rec.state = rec.manager->recover();
    if (rec.state.checkpoint.has_value()) {
      // The durable state supersedes the seed: bit-identical CSR and epoch,
      // so replayed WAL batches reproduce the exact pre-crash sequence.
      rec.graph = std::move(rec.state.checkpoint->graph);
      rec.start_epoch = rec.state.checkpoint->epoch;
    }
  }
  return rec;
}

UpdatePath::UpdatePath(MutableGraph& graph, const SessionConfig& cfg,
                       PlanCache& plans, MetricsRegistry& metrics,
                       Recovery rec)
    : graph_(graph),
      cfg_(cfg),
      metrics_(metrics),
      persist_(std::move(rec.manager)),
      standing_(cfg.standing_index, cfg.host_threads_per_query, plans,
                metrics) {
  STM_CHECK_MSG(graph_.base().num_vertices() > 0,
                "GraphSession requires a non-empty graph");
  Gauge& recovery_ms = metrics.gauge(
      "recovery_ms", "Wall time of crash recovery at construction");
  Counter& replayed = metrics.counter(
      "recovery_replayed_batches",
      "Update batches replayed from the WAL at session construction");
  if (persist_ != nullptr) {
    Timer recovery_timer;
    recovery_report_ = rec.state.report;
    if (rec.state.checkpoint.has_value()) {
      standing_.restore(rec.state.checkpoint->standing,
                        rec.state.checkpoint->next_standing_id);
    }
    // Replay the WAL tail in LSN order. The update fault injector is
    // installed only *after* replay: a replayed batch was already
    // acknowledged once and must not re-roll its dice.
    for (const persist::WalRecord& r : rec.state.tail) {
      switch (r.type) {
        case persist::WalRecordType::kUpdateBatch: {
          const std::shared_ptr<const GraphSnapshot> from = graph_.snapshot();
          UpdateBatch batch;
          batch.insertions = r.delta.inserted;
          batch.deletions = r.delta.deleted;
          const ApplyResult applied = graph_.apply(batch);
          STM_CHECK_MSG(applied.snapshot->epoch() == r.epoch,
                        "WAL replay diverged: record "
                            << r.lsn << " expects epoch " << r.epoch
                            << " but replay produced "
                            << applied.snapshot->epoch());
          STM_CHECK_MSG(applied.applied == r.delta,
                        "WAL replay diverged: record "
                            << r.lsn
                            << " re-applied with a different effective delta");
          standing_.apply(from, applied.applied, r.epoch, nullptr);
          break;
        }
        case persist::WalRecordType::kRegisterStanding:
          standing_.restore({r.standing}, r.standing.id + 1);
          break;
        case persist::WalRecordType::kUnregisterStanding:
          standing_.unregister(r.standing_id, nullptr);
          break;
      }
    }
    graph_epoch_.set(static_cast<double>(graph_.epoch()));
    // Fold the replayed deltas back into a flat CSR: post-recovery queries
    // (and a sharded partition build) should not pay the overlay tax for
    // history that is already durable.
    if (!rec.state.tail.empty()) graph_.compact();
    persist_->open_wal(rec.state.next_lsn, rec.state.wal_valid_bytes);
    if (!rec.state.report.checkpoint_loaded) {
      // First boot of this directory: install checkpoint 1 right away so
      // restore() works after any later crash (failure is tolerable — the
      // WAL alone still carries everything).
      checkpoint_locked();
    }
    recovery_report_.recovery_ms = recovery_timer.elapsed_ms();
    recovery_ms.set(recovery_report_.recovery_ms);
    replayed.inc(recovery_report_.replayed_batches);
  }
  if (cfg_.update_fault.enabled()) {
    STM_CHECK(cfg_.update_fault.max_unit_attempts >= 1);
    graph_.set_fault(cfg_.update_fault);
  }
  if (cfg_.sharding.enabled()) {
    if (cfg_.sharding.fault.enabled())
      STM_CHECK(cfg_.sharding.fault.max_unit_attempts >= 1);
    rebuild_shards(graph_.snapshot(), nullptr);
  }
  refresh_storage_metrics();
}

UpdateOutcome UpdatePath::apply(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  Timer total;
  UpdateOutcome out;

  // Write-ahead discipline: the effective delta is logged (and fsynced) at
  // the pre-publish point — after the successor snapshot is fully built and
  // the kUpdateApply fault check passed, before readers can see it. A hook
  // throw (exhausted kWalAppend budget) drops the batch: memory and durable
  // state stay in lockstep either way. No-op batches skip the hook.
  std::function<void(const ApplyResult&)> wal;
  if (persist_ != nullptr) {
    wal = [this](const ApplyResult& r) {
      record_wal_append(persist_->log_update(r.snapshot->epoch(), r.applied));
    };
  }
  const std::shared_ptr<const GraphSnapshot> from = graph_.snapshot();
  ApplyResult applied;
  try {
    applied = graph_.apply(batch, wal);
    out.epoch = applied.snapshot->epoch();
    out.stats = applied.stats;
    out.applied = applied.applied;
  } catch (...) {
    // A check_error is an invalid batch; anything else includes
    // FaultInjectedError (kUpdateApply chaos): the batch validated but its
    // snapshot was never published. Either way the graph is unchanged.
    updates_failed_.inc();
    Failure failure = escaped_failure("update apply failed");
    out.status = failure.status;
    out.error = std::move(failure.error);
    out.epoch = from->epoch();
  }

  // A no-op batch (empty effective delta) published nothing: no epoch bump,
  // so nothing to count, refresh, deliver or checkpoint.
  if (out.ok() && !out.applied.empty()) {
    updates_applied_.inc();
    edges_inserted_.inc(applied.stats.inserted);
    edges_deleted_.inc(applied.stats.deleted);
    graph_epoch_.set(static_cast<double>(out.epoch));
    // Keep the partition paired with the newest snapshot (halo refresh of
    // the touched shards only); queries pin the pair atomically.
    if (cfg_.sharding.enabled())
      rebuild_shards(applied.snapshot, &applied.applied);

    StandingBatch standing;
    standing_.apply(from, applied.applied, out.epoch, &standing);
    out.updates = std::move(standing.updates);
    out.incremental_ms = standing.ms;

    if (persist_ != nullptr && cfg_.persistence.checkpoint_every_batches > 0 &&
        ++batches_since_checkpoint_ >=
            cfg_.persistence.checkpoint_every_batches) {
      // Post-batch checkpoint: standing counts are already advanced, so the
      // manifest matches the CSR it is stored with. A chaos-failed install
      // leaves the WAL authoritative and retries after the next batch.
      checkpoint_locked();
    }
  }

  out.update_ms = total.elapsed_ms();
  update_latency_ms_.observe(out.update_ms);
  if (out.ok()) refresh_storage_metrics();
  return out;
}

void UpdatePath::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  graph_.compact();
  // compact() re-encodes the backend; publish the new footprint right away.
  refresh_storage_metrics();
}

bool UpdatePath::checkpoint() {
  STM_CHECK_MSG(persist_ != nullptr,
                "checkpoint() requires SessionConfig::persistence");
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_locked();
}

std::uint64_t UpdatePath::register_standing(StandingQueryConfig cfg) {
  // Serialized with the update path so the baseline's (count, epoch) pair is
  // consistent and the registration's WAL position is unambiguous.
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const GraphSnapshot> snap = graph_.snapshot();
  return standing_.register_query(
      std::move(cfg), snap, [&](const persist::StandingEntry& e) {
        if (persist_ != nullptr)
          record_wal_append(persist_->log_register(e, snap->epoch()));
      });
}

bool UpdatePath::unregister_standing(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  return standing_.unregister(id, [&](const persist::StandingEntry& e) {
    if (persist_ != nullptr)
      record_wal_append(persist_->log_unregister(e.id, graph_.epoch()));
  });
}

void UpdatePath::record_wal_append(const persist::WalAppendResult& res) {
  wal_appended_bytes_.inc(res.bytes);
  if (res.faults > 0) {
    faults_injected_total_.inc(res.faults);
    recovery_units_total_.inc(1);  // the record landed after repairs
  }
}

bool UpdatePath::checkpoint_locked() {
  Timer timer;
  persist::CheckpointData data;
  const std::shared_ptr<const GraphSnapshot> snap = graph_.snapshot();
  data.epoch = snap->epoch();
  data.graph = snap->compacted();
  standing_.manifest(&data);
  const std::uint64_t faults_before = persist_->faults_injected();
  bool ok = true;
  try {
    persist_->install_checkpoint(std::move(data));
  } catch (const FaultInjectedError&) {
    // Exhausted chaos budget: the WAL and previous checkpoint set still
    // hold everything, so the session keeps running un-checkpointed.
    checkpoint_failures_.inc(1);
    ok = false;
  }
  const std::uint64_t faults = persist_->faults_injected() - faults_before;
  if (faults > 0) {
    faults_injected_total_.inc(faults);
    if (ok) recovery_units_total_.inc(1);
  }
  if (ok) {
    batches_since_checkpoint_ = 0;
    checkpoints_written_.inc(1);
    checkpoint_duration_ms_.observe(timer.elapsed_ms());
  }
  return ok;
}

std::shared_ptr<const UpdatePath::ShardState> UpdatePath::partition() const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  return shard_state_;
}

void UpdatePath::rebuild_shards(std::shared_ptr<const GraphSnapshot> snap,
                                const DeltaEdges* delta) {
  // Both branches read store-backed adjacency (halo refresh via snap->view(),
  // full build via compacted()); a query completing concurrently must not
  // trim the decode cache mid-read.
  const auto storage_lease = snap->storage_lease();
  std::shared_ptr<const dist::Partition> next;
  if (delta != nullptr) {
    const std::shared_ptr<const ShardState> cur = partition();
    STM_CHECK_MSG(cur != nullptr,
                  "partition refresh without an initial partition");
    next = std::make_shared<const dist::Partition>(
        dist::refresh_partition(*cur->partition, snap->view(), *delta));
  } else {
    dist::PartitionConfig pcfg;
    pcfg.num_shards = cfg_.sharding.num_shards;
    pcfg.strategy = cfg_.sharding.strategy;
    pcfg.hash_salt = cfg_.sharding.hash_salt;
    // Partition the version we are pairing with — not the seed CSR, which a
    // recovered session has long moved past. The full build only runs at
    // construction, where the snapshot is compact; fold any delta in
    // defensively rather than silently dropping those edges.
    const Graph* base = &snap->base();
    Graph materialized;
    if (!snap->delta_from_base().empty()) {
      materialized = snap->compacted();
      base = &materialized;
    }
    next = std::make_shared<const dist::Partition>(
        dist::partition_graph(*base, pcfg));
  }

  // Publish the balance gauges from the materialized shards: labeled
  // per-shard series plus the aggregate imbalance / cut-fraction pair.
  const std::uint32_t num_shards = next->num_shards();
  std::vector<std::uint64_t> incident(num_shards, 0);
  for (const auto& [u, v] : next->cut_edges) {
    ++incident[next->owner_of(u)];
    ++incident[next->owner_of(v)];
  }
  double max_load = 0.0;
  double total_load = 0.0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const dist::Shard& shard = *next->shards[s];
    const double load = static_cast<double>(shard.local.num_edges()) +
                        0.5 * static_cast<double>(incident[s]);
    max_load = std::max(max_load, load);
    total_load += load;
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    metrics_.gauge("shard_owned_vertices" + label, "Vertices owned per shard")
        .set(static_cast<double>(shard.num_owned()));
    metrics_.gauge("shard_intra_edges" + label, "Intra-shard edges per shard")
        .set(static_cast<double>(shard.local.num_edges()));
    metrics_
        .gauge("shard_cut_edges" + label,
               "Cut edges owned per shard (min-shard rule)")
        .set(static_cast<double>(shard.cut_edges.size()));
  }
  shard_imbalance_.set(total_load > 0.0 ? max_load * num_shards / total_load
                                        : 1.0);
  cut_edge_fraction_.set(next->num_edges > 0
                             ? static_cast<double>(next->cut_edges.size()) /
                                   static_cast<double>(next->num_edges)
                             : 0.0);

  auto state = std::make_shared<ShardState>();
  state->snapshot = std::move(snap);
  state->partition = std::move(next);
  std::lock_guard<std::mutex> lock(shard_mu_);
  shard_state_ = std::move(state);
}

void UpdatePath::refresh_storage_metrics() {
  // The whole refresh — snapshot acquisition, stats read, counter fold —
  // runs under one lock so concurrent refreshes serialize and each folds a
  // consistent (store, stats) pair. Stores only move forward (compact()
  // publishes a rebuilt backend, never an old one), so the identity check
  // below sees each store's counters folded from its own baseline; without
  // the lock two threads could read stats() from different stores around a
  // compact() and apply them to the seen-counters out of order.
  std::lock_guard<std::mutex> lock(storage_mu_);
  const std::shared_ptr<const GraphSnapshot> snap = graph_.snapshot();
  graph_resident_bytes_.set(static_cast<double>(snap->memory_bytes()));
  const std::shared_ptr<const storage::GraphStore>& store = snap->store();
  if (store == nullptr) {
    storage_resident_bytes_.set(0.0);
    compression_ratio_.set(1.0);
    return;
  }
  // Decoded lists are per-run working memory; reclaim them once they exceed
  // the policy budget. A trim racing a running query is a no-op (the lease
  // blocks it) and the cache shrinks at the next refresh instead.
  const std::uint64_t budget = cfg_.storage.memory_budget_bytes;
  if (budget > 0 && store->stats().decoded_cache_bytes > budget)
    store->trim_decoded();
  const storage::StorageStats st = store->stats();
  storage_resident_bytes_.set(static_cast<double>(st.resident_bytes));
  compression_ratio_.set(st.compression_ratio);
  // Store counters are cumulative per-store and restart from zero when
  // compact() swaps in a rebuilt backend; key the seen-counters to the store
  // identity (weak_ptr: expiry-safe against address reuse) and fold only the
  // increments into the monotone session counters.
  if (storage_store_.lock() != store) {
    storage_store_ = store;
    page_faults_seen_ = 0;
    decode_ops_seen_ = 0;
  }
  storage_page_faults_.inc(st.page_faults - page_faults_seen_);
  page_faults_seen_ = st.page_faults;
  storage_decode_ops_.inc(st.decode_ops - decode_ops_seen_);
  decode_ops_seen_ = st.decode_ops;
}

}  // namespace stm
