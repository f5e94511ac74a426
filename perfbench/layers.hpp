// Per-layer measurements of the traced run.
//
// Each probe calls one layer's public functions directly, from the
// benchmark's own code, on the workload's own graph and patterns, inside a
// span named after the layer. Layers a workload leaves idle (dynamic, mqo
// and persist on the query workloads) are still probed, on a fixed replay
// of seeded flat batches over the workload's graph, so every traced run
// reports every per-layer metric; the end-to-end metrics of those
// workloads do not depend on them.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The standing-query registrations of update_standing: `count` draws from
/// q1..q8 (a seeded Deck, so each pattern appears equally often).
std::vector<int> standing_registrations(std::uint64_t seed,
                                        std::size_t count = 1000);

/// service.* and core.engine_ms_* from the results the timed phase served.
void service_metrics(const std::vector<QueryResult>& results, Report& report);

/// pattern.compile_ms_p50: each distinct pattern into an empty PlanCache.
void probe_pattern(const std::vector<int>& queries, Tracer& tracer,
                   Report& report);

/// core.scalar_ops / sets_built / max_chunk_share from the reference pass on
/// the workload's first graph version (`refs[i]` counts `queries[i]`), and
/// core.parallel_eff from host_match at 1 and 4 threads over `eff_queries`.
void probe_core(const GraphSnapshot& snap, const std::vector<int>& queries,
                const std::vector<Reference>& refs,
                const std::vector<int>& eff_queries, Tracer& tracer,
                Report& report);

/// setops.intersect_count_ns_per_elem.<isa> over the neighbor-list pairs of
/// adjacent vertices, and setops.skewed_pair_share.
void probe_setops(const GraphSnapshot& snap, Tracer& tracer, Report& report);

/// storage.scan_ns_per_edge, storage.resident_bytes,
/// storage.compression_ratio.
void probe_storage(const GraphSnapshot& snap, Tracer& tracer, Report& report);

/// dynamic.*, mqo.* and persist.* (except recover_load_ms) from replaying
/// `batches` on `base`: MutableGraph::apply, then
/// MultiQueryEvaluator::evaluate over `registrations`, then
/// PersistenceManager::log_update with fsync on, and a checkpoint install
/// every 8 batches, in a fresh `state_dir`.
void probe_update_path(const Graph& base,
                       const std::vector<UpdateBatch>& batches,
                       const std::vector<int>& registrations,
                       const std::string& state_dir, Tracer& tracer,
                       Report& report);

/// persist.recover_load_ms: PersistenceManager::recover() alone on an
/// existing state directory (median of several loads).
void probe_recover_load(const std::string& state_dir, Tracer& tracer,
                        Report& report);

/// Runs the idle-layer replay for a query workload: 64 seeded flat batches
/// over `base` with the update_standing registrations.
void probe_idle_update_path(const Graph& base, std::uint64_t seed,
                            const std::string& work_dir, Tracer& tracer,
                            Report& report);

}  // namespace perfbench
