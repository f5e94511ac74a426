#include "core/run.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "core/engine.hpp"
#include "core/recursive.hpp"
#include "util/timer.hpp"

namespace stm {

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSimt:
      return "simt";
    case EngineKind::kHost:
      return "host";
    case EngineKind::kReference:
      return "reference";
  }
  return "unknown";
}

EngineRun run_engine(EngineKind kind, GraphView g, const Pattern& pattern,
                     const MatchingPlan& plan, const HostEngineConfig& host_cfg,
                     const EngineConfig& simt_cfg, const CancelToken* cancel,
                     EmbeddingSink* sink) {
  if (kind == EngineKind::kHost) {
    const HostMatchResult r = host_match(g, plan, host_cfg, cancel, sink);
    return {r.count, r.stats};
  }
  if (kind == EngineKind::kSimt) {
    // Simulated engine time is not wall time; stats.engine_ms keeps the
    // engine's own view.
    const MatchResult r = stmatch_match(g, plan, simt_cfg, cancel, sink);
    return {r.count, r.query};
  }
  // kReference, the last resort: it shares no candidate-set machinery with
  // the optimized engines, so faults rooted there cannot follow it here.
  EngineRun run;
  Timer engine_timer;
  if (sink == nullptr) {
    run.count = reference_count(
        g, pattern, {plan.options().induced, plan.options().count_mode},
        cancel);
  } else {
    // The stream's reference lane: the sequential recursive executor, one
    // bucket per outer-loop vertex, posted in order. Shares the plan (hence
    // the order) with the optimized engines but none of their scheduling —
    // the oracle compares the engines' drained streams against this one.
    RecursiveCounters counters;
    const VertexId n = g.num_vertices();
    const VertexId begin = std::min(host_cfg.v_begin, n);
    sink->begin(n - begin);
    std::vector<Embedding> staged;
    for (VertexId v0 = begin; v0 < n; ++v0) {
      recursive_enumerate_range(
          g, plan, v0, v0 + 1,
          [&staged](const std::vector<VertexId>& m) {
            staged.push_back(m);
            return true;
          },
          &counters, cancel);
      // A fired token may have cut the bucket short; an incomplete bucket is
      // never posted (the stream ends at the previous, complete one).
      if (cancel != nullptr && cancel->expired()) break;
      run.count += staged.size();
      if (!sink->post(v0 - begin, std::move(staged))) break;
      staged = {};
    }
    run.stats.scalar_ops = counters.scalar_ops;
    run.stats.sets_built = counters.sets_built;
  }
  run.stats.engine_ms = engine_timer.elapsed_ms();
  if (cancel != nullptr && cancel->expired()) {
    run.stats.status = cancel->status();
  }
  return run;
}

}  // namespace stm
