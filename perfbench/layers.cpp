#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include "core/host_engine.hpp"
#include "mqo/evaluator.hpp"
#include "mqo/pattern_index.hpp"
#include "pattern/queries.hpp"
#include "persist/manager.hpp"
#include "service/plan_cache.hpp"
#include "setops/simd.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

/// Keeps the timed kernel and scan results observable.
volatile std::uint64_t g_sink = 0;

/// Repeats `pass` until it has run for at least `min_ms` and returns the
/// mean ms per pass.
template <typename Fn>
double time_passes(double min_ms, Fn&& pass) {
  stm::Timer t;
  std::uint64_t passes = 0;
  do {
    pass();
    ++passes;
  } while (t.elapsed_ms() < min_ms);
  return t.elapsed_ms() / static_cast<double>(passes);
}

}  // namespace

std::vector<int> standing_registrations(std::uint64_t seed,
                                        std::size_t count) {
  Deck deck({1, 2, 3, 4, 5, 6, 7, 8}, seed);
  std::vector<int> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(deck.at(i));
  return out;
}

void service_metrics(const std::vector<QueryResult>& results, Report& report) {
  std::vector<double> queue, overhead, engine;
  double hits = 0, shed = 0, engine_all = 0, engine_wasted = 0;
  for (const QueryResult& r : results) {
    if (r.status == stm::QueryStatus::kOverloaded) {
      ++shed;
      continue;
    }
    queue.push_back(r.queue_ms);
    overhead.push_back(
        std::max(0.0, r.total_ms - r.queue_ms - r.stats.engine_ms));
    engine.push_back(r.stats.engine_ms);
    hits += r.plan_cache_hit ? 1 : 0;
    engine_all += r.stats.engine_ms;
    if (r.status == stm::QueryStatus::kDeadlineExceeded)
      engine_wasted += r.stats.engine_ms;
  }
  const double n = static_cast<double>(results.size());
  report.layer("service.queue_ms_p50", pct(queue, 50), "ms");
  report.layer("service.queue_ms_p99", pct(queue, 99), "ms");
  report.layer("service.overhead_ms_p50", pct(overhead, 50), "ms");
  report.layer("service.plan_cache_hit_rate",
               queue.empty() ? 0.0 : hits / static_cast<double>(queue.size()),
               "ratio");
  report.layer("service.shed_frac", n == 0 ? 0.0 : shed / n, "ratio");
  report.layer("service.wasted_engine_frac",
               engine_all == 0 ? 0.0 : engine_wasted / engine_all, "ratio");
  report.layer("core.engine_ms_p50", pct(engine, 50), "ms");
  report.layer("core.engine_ms_p99", pct(engine, 99), "ms");
}

void probe_pattern(const std::vector<int>& queries, Tracer& tracer,
                   Report& report) {
  const std::set<int> distinct(queries.begin(), queries.end());
  std::vector<double> per_pattern;
  for (const int q : distinct) {
    const stm::Pattern p = stm::query(q);
    std::vector<double> reps;
    for (int rep = 0; rep < 9; ++rep) {
      stm::PlanCache cache;
      const auto span = tracer.span("pattern.get_or_compile", q);
      stm::Timer t;
      cache.get_or_compile(p, unique_subgraphs());
      reps.push_back(t.elapsed_ms());
    }
    per_pattern.push_back(median(reps));
  }
  report.layer("pattern.compile_ms_p50", median(per_pattern), "ms");
}

void probe_core(const GraphSnapshot& snap, const std::vector<int>& queries,
                const std::vector<Reference>& refs,
                const std::vector<int>& eff_queries, Tracer& tracer,
                Report& report) {
  double scalar_ops = 0, sets_built = 0, heaviest = 0, total = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    scalar_ops += static_cast<double>(refs[i].counters.scalar_ops);
    sets_built += static_cast<double>(refs[i].counters.sets_built);
    for (const double ms : refs[i].chunk_ms) total += ms;
    if (!refs[i].chunk_ms.empty())
      heaviest += *std::max_element(refs[i].chunk_ms.begin(),
                                    refs[i].chunk_ms.end());
  }
  report.layer("core.scalar_ops", scalar_ops, "count");
  report.layer("core.sets_built", sets_built, "count");
  report.layer("core.max_chunk_share", total == 0 ? 0.0 : heaviest / total,
               "ratio");

  // host_match at 1 and 4 threads, interleaved, 3 rounds; per pattern the
  // median round.
  const auto lease = snap.storage_lease();
  const stm::GraphView view = snap.view();
  double t1_sum = 0, t4_sum = 0;
  for (const int q : eff_queries) {
    const auto plan = compile(q);
    std::vector<double> t1, t4;
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        stm::HostEngineConfig cfg;
        cfg.num_threads = threads;
        const auto span = tracer.span("core.host_match", q);
        stm::Timer t;
        stm::host_match(view, *plan, cfg);
        (threads == 1 ? t1 : t4).push_back(t.elapsed_ms());
      }
    }
    t1_sum += median(t1);
    t4_sum += median(t4);
  }
  report.layer("core.parallel_eff", t4_sum == 0 ? 0.0 : t1_sum / (4 * t4_sum),
               "ratio");
}

void probe_setops(const GraphSnapshot& snap, Tracer& tracer, Report& report) {
  namespace simd = stm::simd;
  const auto lease = snap.storage_lease();
  const stm::GraphView view = snap.view();
  std::vector<std::pair<std::span<const VertexId>, std::span<const VertexId>>>
      pairs;
  double elems = 0, skewed = 0;
  for (VertexId u = 0; u < view.num_vertices(); ++u) {
    const auto nu = view.neighbors(u);
    for (const VertexId v : nu) {
      if (v <= u) continue;
      const auto nv = view.neighbors(v);
      pairs.emplace_back(nu, nv);
      elems += static_cast<double>(nu.size() + nv.size());
      const std::size_t lo = std::min(nu.size(), nv.size());
      const std::size_t hi = std::max(nu.size(), nv.size());
      if (lo > 0 && hi >= simd::kGallopSkewRatio * lo) ++skewed;
    }
  }
  report.layer("setops.skewed_pair_share",
               pairs.empty() ? 0.0 : skewed / static_cast<double>(pairs.size()),
               "ratio");
  for (const auto level : {simd::IsaLevel::kScalar, simd::IsaLevel::kSse42,
                           simd::IsaLevel::kAvx2}) {
    const std::string name =
        std::string("setops.intersect_count_ns_per_elem.") +
        simd::to_string(level);
    if (!simd::is_supported(level)) {
      report.layer(name, 0.0, "ns");
      report.dropped[name] = "ISA level not supported on this CPU";
      continue;
    }
    const simd::Kernels& k = simd::kernels_for(level);
    std::vector<double> reps;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto span = tracer.span("setops.intersect_count");
      reps.push_back(time_passes(10.0, [&] {
        for (const auto& [a, b] : pairs)
          sink += k.intersect_count(a.data(), a.size(), b.data(), b.size());
      }));
    }
    g_sink = sink;
    report.layer(name, median(reps) * 1e6 / std::max(elems, 1.0), "ns");
  }
}

void probe_storage(const GraphSnapshot& snap, Tracer& tracer, Report& report) {
  const auto lease = snap.storage_lease();
  const stm::GraphView view = snap.view();
  const double entries = static_cast<double>(view.num_adjacency_entries());
  std::vector<double> reps;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto span = tracer.span("storage.neighbor_scan");
    reps.push_back(time_passes(10.0, [&] {
      for (VertexId v = 0; v < view.num_vertices(); ++v)
        for (const VertexId x : view.neighbors(v)) sink += x;
    }));
  }
  g_sink = sink;
  report.layer("storage.scan_ns_per_edge",
               median(reps) * 1e6 / std::max(entries, 1.0), "ns");
  const auto& store = snap.store();
  if (store != nullptr) {
    const stm::storage::StorageStats st = store->stats();
    report.layer("storage.resident_bytes",
                 static_cast<double>(st.resident_bytes), "bytes");
    report.layer("storage.compression_ratio", st.compression_ratio, "ratio");
  } else {
    report.layer("storage.resident_bytes",
                 static_cast<double>(snap.memory_bytes()), "bytes");
    report.layer("storage.compression_ratio", 1.0, "ratio");
  }
}

void probe_update_path(const Graph& base,
                       const std::vector<UpdateBatch>& batches,
                       const std::vector<int>& registrations,
                       const std::string& state_dir, Tracer& tracer,
                       Report& report) {
  stm::mqo::PatternIndex index;
  std::vector<double> register_ms;
  for (std::size_t i = 0; i < registrations.size(); ++i) {
    const stm::Pattern p = stm::query(registrations[i]);
    const auto span = tracer.span("mqo.add", i + 1);
    stm::Timer t;
    index.add(i + 1, p, unique_subgraphs(), /*wants_embeddings=*/false);
    register_ms.push_back(t.elapsed_ms());
  }
  const stm::mqo::IndexStats st = index.stats();
  report.layer("mqo.register_ms_p50", median(register_ms), "ms");
  report.layer("mqo.groups", static_cast<double>(st.groups), "count");
  report.layer("mqo.trie_nodes", static_cast<double>(st.trie.nodes), "count");
  report.layer("mqo.shared_prefix_ratio", st.trie.shared_prefix_ratio,
               "ratio");

  std::filesystem::remove_all(state_dir);
  stm::persist::PersistenceConfig pc;
  pc.dir = state_dir;
  pc.fsync = true;
  stm::persist::PersistenceManager pm(pc);
  const stm::persist::RecoveredState rec = pm.recover();
  pm.open_wal(rec.next_lsn, rec.wal_valid_bytes);

  const stm::mqo::MultiQueryEvaluator eval(index);
  stm::MutableGraph g(base);
  const double edges_before = static_cast<double>(g.snapshot()->num_edges());
  std::vector<double> apply_ms, eval_ms, wal_ms, ckpt_ms;
  double wal_bytes = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto batch_span = tracer.span("bench.replay_batch", i);
    const auto from = g.snapshot();
    stm::ApplyResult applied;
    {
      const auto span = tracer.span("dynamic.apply", i);
      stm::Timer t;
      applied = g.apply(batches[i]);
      apply_ms.push_back(t.elapsed_ms());
    }
    {
      const auto span = tracer.span("mqo.evaluate", i);
      stm::Timer t;
      const stm::mqo::EvalResult res = eval.evaluate(from, applied.applied);
      eval_ms.push_back(t.elapsed_ms());
      if (res.delta_edges != applied.applied.size())
        report.fail("mqo replay saw " + std::to_string(res.delta_edges) +
                    " delta edges, applied " +
                    std::to_string(applied.applied.size()));
    }
    {
      const auto span = tracer.span("persist.log_update", i);
      stm::Timer t;
      wal_bytes += static_cast<double>(
          pm.log_update(applied.snapshot->epoch(), applied.applied).bytes);
      wal_ms.push_back(t.elapsed_ms());
    }
    if (i % 8 == 4) {
      stm::persist::CheckpointData data;
      data.seq = pm.next_checkpoint_seq();
      data.epoch = applied.snapshot->epoch();
      data.last_lsn = pm.last_lsn();
      data.graph = applied.snapshot->compacted();
      const auto span = tracer.span("persist.install_checkpoint", i);
      stm::Timer t;
      pm.install_checkpoint(std::move(data));
      ckpt_ms.push_back(t.elapsed_ms());
    }
  }
  const double edges_after = static_cast<double>(g.snapshot()->num_edges());
  report.layer("dynamic.apply_ms_p50", pct(apply_ms, 50), "ms");
  report.layer("dynamic.apply_ms_p99", pct(apply_ms, 99), "ms");
  report.layer("dynamic.edges_drift",
               edges_before == 0 ? 0.0 : edges_after / edges_before, "ratio");
  report.layer("mqo.evaluate_ms_p50", pct(eval_ms, 50), "ms");
  report.layer("mqo.evaluate_ms_p99", pct(eval_ms, 99), "ms");
  report.layer("persist.wal_append_ms_p50", pct(wal_ms, 50), "ms");
  report.layer("persist.wal_append_ms_p99", pct(wal_ms, 99), "ms");
  report.layer("persist.wal_bytes_per_batch",
               batches.empty() ? 0.0
                               : wal_bytes / static_cast<double>(batches.size()),
               "count");
  report.layer("persist.checkpoint_ms_p50", median(ckpt_ms), "ms");
}

void probe_recover_load(const std::string& state_dir, Tracer& tracer,
                        Report& report) {
  stm::persist::PersistenceConfig pc;
  pc.dir = state_dir;
  pc.fsync = true;
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    stm::persist::PersistenceManager pm(pc);
    const auto span = tracer.span("persist.recover");
    stm::Timer t;
    const stm::persist::RecoveredState rec = pm.recover();
    ms.push_back(t.elapsed_ms());
    if (!rec.checkpoint.has_value())
      report.fail("recover() found no checkpoint in " + state_dir);
  }
  report.layer("persist.recover_load_ms", median(ms), "ms");
}

void probe_idle_update_path(const Graph& base, std::uint64_t seed,
                            const std::string& work_dir, Tracer& tracer,
                            Report& report) {
  FlatBatchGenerator gen(base, seed ^ 0x1d1e);
  std::vector<UpdateBatch> batches;
  for (int i = 0; i < 64; ++i) batches.push_back(gen.next(16));
  const std::string dir = work_dir + "/idle-replay";
  probe_update_path(base, batches, standing_registrations(seed), dir, tracer,
                    report);
  probe_recover_load(dir, tracer, report);
}

}  // namespace perfbench
