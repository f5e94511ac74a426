// Host-parallel execution path: real std::thread workers with dynamic
// chunk distribution over the outermost loop, plus STMatch-style work
// stealing (paper §V) so one heavy chunk no longer runs serially: once the
// chunks are gone, an idle worker asks for work, and the busiest worker
// donates the upper half of its remaining range at its shallowest
// splittable level (see RecursivePiece / WorkDonor in recursive.hpp).
//
// This is the execution mode a CPU-only downstream user runs in production;
// the SIMT engine (engine.hpp) is the paper-faithful simulated-GPU path.
// Both consume the same MatchingPlan and must produce identical counts.
#pragma once

#include <cstddef>

#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/emit.hpp"
#include "core/fault.hpp"
#include "core/query_stats.hpp"
#include "graph/view.hpp"
#include "pattern/plan.hpp"

namespace stm {

struct HostEngineConfig {
  /// Worker threads (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Outer-loop vertices claimed per work grab.
  VertexId chunk_size = 16;
  /// First outer-loop vertex (cursor start). Lets a resumed stream skip the
  /// prefix already delivered to the client.
  VertexId v_begin = 0;
  /// Deterministic fault-injection schedule (off by default). Sites
  /// interpreted here: kHostTask (a chunk's partial work — every stolen
  /// piece of it included — is discarded and the chunk re-enqueued, bounded
  /// by max_unit_attempts; decided once all its pieces settled) and
  /// kEngineThrow (the host_match call itself throws FaultInjectedError).
  FaultConfig fault;
};

struct HostMatchResult {
  /// Match count; partial when stats.status != kOk.
  std::uint64_t count = 0;
  /// Unified per-query statistics (engine_ms = wall-clock of the parallel
  /// section, scalar_ops = aggregate scalar set-operation work).
  QueryStats stats;
};

/// Counts matches of the plan on real threads. A non-null `cancel` token is
/// polled cooperatively by every worker; when it fires, the run returns
/// early with the partial count and stats.status = kDeadlineExceeded /
/// kCancelled.
///
/// With a non-null `sink` the engine also emits every matched embedding:
/// bucket id = chunk ordinal ((chunk.begin - v_begin) / chunk_size), dense
/// and ascending in outer-loop vertex, so the sequenced stream is the plan's
/// DFS order. Pieces stolen from a chunk stage into the chunk's bucket,
/// which is sorted back into DFS order when its last piece settles. A
/// chunk's bucket is posted only after the chunk completed exactly
/// (interrupted or kHostTask-failed chunks are never posted, keeping the
/// stream exact; a retried chunk posts on its successful attempt).
/// stats.steals counts the pieces donated between workers. With
/// num_threads == 1 the caller's thread does all the work.
/// Workers never block on backpressure while claimable work (including
/// stolen pieces and retry chunks) exists — completed buckets park in a
/// per-worker pending list and are flushed opportunistically, with a final
/// blocking flush at exit.
HostMatchResult host_match(GraphView g, const MatchingPlan& plan,
                           const HostEngineConfig& cfg = {},
                           const CancelToken* cancel = nullptr,
                           EmbeddingSink* sink = nullptr);

}  // namespace stm
