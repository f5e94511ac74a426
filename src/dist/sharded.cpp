#include "dist/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "dist/scheduler.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "pattern/matching_order.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace stm::dist {

namespace {

/// Unit-identity bits of a kShardFailure fault key: (kind, index, attempt).
constexpr std::uint64_t unit_key(std::uint64_t kind, std::uint64_t index,
                                 std::uint64_t attempt) {
  return (kind << 40) | (index << 16) | attempt;
}
constexpr std::uint64_t kLocalUnit = 0;
constexpr std::uint64_t kChunkUnit = 1;

/// The shard-local term of one shard, in the requested count mode.
struct LocalOutcome {
  std::uint64_t count = 0;
  QueryStats query;
  std::uint32_t attempts = 0;
};

/// One cut-edge chunk's contribution (always embeddings).
struct ChunkOutcome {
  std::uint64_t embeddings = 0;
  std::uint64_t anchored_runs = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t units_recovered = 0;
  QueryStatus status = QueryStatus::kOk;
  std::uint32_t attempts = 0;
};

}  // namespace

ShardedMatcher::ShardedMatcher(const Pattern& pattern,
                               const ShardedOptions& opts)
    : pattern_(pattern), opts_(opts) {
  STM_CHECK_MSG(pattern_.size() >= 1, "pattern must have at least one vertex");
  if (opts_.plan.induced == Induced::kEdge && pattern_.size() >= 2)
    anchored_.emplace(pattern_, IncrementalOptions{opts_.plan,
                                                   opts_.anchor_engine,
                                                   opts_.simt});
}

ShardedResult ShardedMatcher::match(GraphView g, const Partition& partition,
                                    const MatchingPlan& local_plan,
                                    std::uint64_t attempt,
                                    const CancelToken* cancel) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t num_shards = partition.num_shards();
  STM_CHECK_MSG(!partition.shards.empty(),
                "sharded matching requires a materialized partition");
  STM_CHECK(g.num_vertices() == partition.num_vertices);
  STM_CHECK_MSG(opts_.plan.induced == Induced::kEdge || num_shards == 1,
                "vertex-induced matching cannot be sharded: an induced match "
                "can cross shards without containing a cut edge");

  ShardedResult result;
  result.cut_edges = partition.cut_edges.size();
  if (partition.num_edges > 0)
    result.cut_fraction = static_cast<double>(result.cut_edges) /
                          static_cast<double>(partition.num_edges);
  VertexId max_owned = 0;
  for (const auto& shard : partition.shards)
    max_owned = std::max(max_owned, shard->num_owned());
  if (partition.num_vertices > 0)
    result.vertex_imbalance =
        static_cast<double>(max_owned) * num_shards / partition.num_vertices;

  // Fault schedule of this call: the caller's retry attempt shifts the
  // incarnation so a transient shard failure clears deterministically.
  FaultConfig fault_cfg = opts_.fault;
  fault_cfg.incarnation += attempt;
  FaultInjector injector(fault_cfg);
  const bool chaos = fault_cfg.enabled();
  std::atomic<bool> exhausted{false};

  // --- Shard-local units -------------------------------------------------
  std::vector<LocalOutcome> locals(num_shards);
  const CostModel& cost = opts_.simt.cost;
  ShardScheduler scheduler(num_shards);

  auto run_local = [&](std::uint32_t s) {
    const Shard& shard = *partition.shards[s];
    LocalOutcome& out = locals[s];
    for (std::uint32_t a = 0; a < fault_cfg.max_unit_attempts; ++a) {
      ++out.attempts;
      if (cancel != nullptr && cancel->expired()) {
        out.query.status = cancel->status();
        return;
      }
      if (chaos && injector.should_fail(FaultSite::kShardFailure,
                                        unit_key(kLocalUnit, s, a)))
        continue;  // the unit died before completing; re-run it
      HostEngineConfig host = opts_.host;
      host.fault.incarnation += attempt + a;
      EngineConfig simt = opts_.simt;
      simt.v_begin = 0;
      simt.v_end = 0;
      simt.v_stride = 1;
      simt.pin_v1 = kNoVertex;
      simt.fault.incarnation += attempt + a;
      const EngineRun r = run_engine(opts_.local_engine, shard.local, pattern_,
                                     local_plan, host, simt, cancel);
      if (r.stats.status == QueryStatus::kInternalError) {
        // The inner engine's own recovery budget ran out; treat the whole
        // shard run as a failed unit and re-run with a new incarnation.
        out.query.faults_injected += r.stats.faults_injected;
        continue;
      }
      out.count = r.count;
      out.query += r.stats;
      if (a > 0) ++out.query.units_recovered;
      return;
    }
    out.query.status = QueryStatus::kInternalError;
    exhausted.store(true, std::memory_order_relaxed);
  };

  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const Shard& shard = *partition.shards[s];
    if (shard.num_owned() == 0) {
      locals[s].attempts = 0;
      continue;
    }
    // LPT proxy from the SIMT cost model: a shard's enumeration scans each
    // vertex's neighborhood against its neighbors' lists (~Σ deg²).
    double est = static_cast<double>(cost.kernel_launch);
    for (VertexId v = 0; v < shard.local.num_vertices(); ++v) {
      const double d = static_cast<double>(shard.local.degree(v));
      est += d * d * static_cast<double>(cost.wave_overhead);
    }
    scheduler.add({s, est, [&run_local, s] { run_local(s); }});
  }

  // --- Cut-edge anchor chunks --------------------------------------------
  // Checkpoint k = G_intra + all cut edges of chunks < k, built once,
  // sequentially; a chunk's worker runs the prefix walk over its checkpoint
  // with its own edges as the inserted side, realizing the prefix identity
  // independently of scheduling order.
  const auto& cut = partition.cut_edges;
  const std::uint32_t chunk_size = std::max<std::uint32_t>(1, opts_.cut_chunk_size);
  const std::size_t num_chunks =
      anchored_.has_value() ? (cut.size() + chunk_size - 1) / chunk_size : 0;
  std::vector<ChunkOutcome> chunks(num_chunks);
  std::optional<MutableGraph> intra;
  std::vector<std::shared_ptr<const GraphSnapshot>> checkpoints;
  if (num_chunks > 0) {
    GraphBuilder intra_b(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (VertexId w : g.neighbors(v))
        if (v < w && partition.owner_of(v) == partition.owner_of(w))
          intra_b.add_edge(v, w);
    Graph intra_g = intra_b.build();
    if (g.is_labeled()) {
      std::vector<Label> labels(g.num_vertices());
      for (VertexId v = 0; v < g.num_vertices(); ++v) labels[v] = g.label(v);
      intra_g = intra_g.with_labels(std::move(labels));
    }
    intra.emplace(std::move(intra_g));
    checkpoints.reserve(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      checkpoints.push_back(intra->snapshot());
      UpdateBatch batch;
      const std::size_t lo = c * chunk_size;
      const std::size_t hi = std::min(cut.size(), lo + chunk_size);
      batch.insertions.assign(cut.begin() + lo, cut.begin() + hi);
      intra->apply(batch);
    }
  }

  auto run_chunk = [&](std::size_t c) {
    ChunkOutcome& out = chunks[c];
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(cut.size(), lo + chunk_size);
    DeltaEdges own;
    own.inserted.assign(cut.begin() + lo, cut.begin() + hi);
    for (std::uint32_t a = 0; a < fault_cfg.max_unit_attempts; ++a) {
      ++out.attempts;
      if (cancel != nullptr && cancel->expired()) {
        out.status = cancel->status();
        return;
      }
      if (chaos && injector.should_fail(FaultSite::kShardFailure,
                                        unit_key(kChunkUnit, c, a)))
        continue;
      std::uint64_t embeddings = 0;
      std::uint64_t runs = 0;
      for_each_prefix_edge(checkpoints[c], own,
                           [&](GraphView view, VertexId u, VertexId v, int) {
                             embeddings += anchored_->count_containing(
                                 view, u, v, &runs);
                           });
      out.embeddings = embeddings;
      out.anchored_runs = runs;
      if (a > 0) ++out.units_recovered;
      return;
    }
    out.status = QueryStatus::kInternalError;
    exhausted.store(true, std::memory_order_relaxed);
  };

  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(cut.size(), lo + chunk_size);
    // Anchored work per cut edge scales with the endpoint degrees, the
    // anchor count, and both seed orientations.
    double est = static_cast<double>(cost.kernel_launch);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& [u, v] = cut[i];
      est += static_cast<double>(g.degree(u) + g.degree(v)) *
             static_cast<double>(2 * anchored_->num_anchors()) *
             static_cast<double>(cost.wave_overhead);
    }
    scheduler.add({partition.cut_owner(cut[lo].first, cut[lo].second), est,
                   [&run_chunk, c] { run_chunk(c); }});
  }

  // --- Execute and aggregate ---------------------------------------------
  const std::uint32_t num_workers =
      opts_.num_workers > 0 ? opts_.num_workers : num_shards;
  ThreadPool pool(num_workers);
  const SchedulerStats sched = scheduler.run(pool, num_workers);
  result.chunk_steals = sched.steals;

  result.shards.resize(num_shards);
  QueryStats merged;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    ShardStats& st = result.shards[s];
    st.shard = s;
    st.owned_vertices = partition.shards[s]->num_owned();
    st.local_count = locals[s].count;
    st.cut_edges_owned = partition.shards[s]->cut_edges.size();
    st.attempts = locals[s].attempts;
    st.query = locals[s].query;
    merged += st.query;
    result.local_total += locals[s].count;
  }
  std::uint64_t cut_embeddings = 0;
  for (const ChunkOutcome& c : chunks) {
    cut_embeddings += c.embeddings;
    result.anchored_runs += c.anchored_runs;
    result.units_recovered += c.units_recovered;
    result.faults_injected += c.faults_injected;
    if (c.status != QueryStatus::kOk && merged.status == QueryStatus::kOk)
      merged.status = c.status;
  }
  result.units_recovered += merged.units_recovered;
  result.faults_injected +=
      merged.faults_injected + injector.total_injected();

  result.cut_total = cut_embeddings;
  if (opts_.plan.count_mode == CountMode::kUniqueSubgraphs &&
      cut_embeddings > 0) {
    const std::uint64_t aut = automorphisms();
    STM_CHECK_MSG(cut_embeddings % aut == 0,
                  "cut-edge embedding total " << cut_embeddings
                                              << " not divisible by |Aut| "
                                              << aut);
    result.cut_total = cut_embeddings / aut;
  }
  result.count = result.local_total + result.cut_total;

  result.status = merged.status;
  if (exhausted.load(std::memory_order_relaxed)) {
    result.status = QueryStatus::kInternalError;
    result.error = "a sharded unit exhausted its recovery budget";
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return result;
}

ShardedResult sharded_match(const Graph& g, const Pattern& pattern,
                            const PartitionConfig& partition,
                            const ShardedOptions& opts) {
  const Partition p = partition_graph(g, partition);
  ShardedMatcher matcher(pattern, opts);
  const MatchingPlan plan(reorder_for_matching(pattern), opts.plan);
  return matcher.match(g, p, plan);
}

}  // namespace stm::dist
