// One engine call for every caller: count queries, embedding streams and
// shard-local units all end in run_engine (paper Algorithm 1: one matching
// plan drives one execution machine).
//
// run_engine dispatches on EngineKind and normalizes the engines' result
// shapes to {count, QueryStats}. Policy stays with the callers: the session
// clamps host threads, bumps fault incarnations per attempt and sets a
// stream's outer-loop start; the sharded coordinator resets the SIMT v-range
// and retries its units.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/emit.hpp"
#include "core/host_engine.hpp"
#include "core/query_stats.hpp"
#include "graph/view.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// Which execution path serves the query. The order doubles as the
/// degradation order: fallback moves strictly to the right.
enum class EngineKind : std::uint8_t {
  kSimt = 0,   // simulated-GPU STMatch engine
  kHost,       // real threads (production CPU path)
  kReference,  // single-threaded brute-force enumerator (last resort)
};
inline constexpr std::size_t kNumEngineKinds = 3;

const char* to_string(EngineKind kind);

struct EngineRun {
  /// Match count; partial when stats.status != kOk.
  std::uint64_t count = 0;
  QueryStats stats;
};

/// Runs `plan` on `g` with the engine `kind`.
///
/// * kHost / kSimt: host_match(host_cfg) / stmatch_match(simt_cfg).
/// * kReference: reference_count on `pattern` (any vertex order) under the
///   plan's induced/count-mode options. With a sink it runs the sequential
///   recursive executor over `plan` instead, one bucket per outer vertex
///   from host_cfg.v_begin — the stream's reference lane.
///
/// A non-null `sink` receives every embedding (core/emit.hpp). A non-null
/// `cancel` token is polled by every engine; stats.status reports its
/// terminal status when it fired. Engine exceptions propagate.
EngineRun run_engine(EngineKind kind, GraphView g, const Pattern& pattern,
                     const MatchingPlan& plan, const HostEngineConfig& host_cfg,
                     const EngineConfig& simt_cfg, const CancelToken* cancel,
                     EmbeddingSink* sink = nullptr);

}  // namespace stm
