// Sequential recursive plan executor.
//
// A direct recursive rendering of Algorithm 1 driven by the same
// MatchingPlan as the stack engine (candidate chains, code motion, label
// masks, symmetry constraints). It backs three consumers:
//   * the host-parallel engine (real std::thread execution, with work
//     donation between threads via run pieces),
//   * the Dryadic-style CPU baseline (scalar cost accounting),
//   * the per-level workload profile behind the cuTS/GSI models.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "graph/view.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// Scalar work counters (one unit ~ one element touched by a set operation).
struct RecursiveCounters {
  /// Elements processed by set operations/copies (merge cost |a|+|b|).
  std::uint64_t scalar_ops = 0;
  /// Set materializations performed.
  std::uint64_t sets_built = 0;
  /// Per-level statistics for the subgraph-centric models:
  /// partials[l] = valid partial embeddings of length l+1;
  /// extension_work[l] = scalar ops spent extending to level l.
  std::array<std::uint64_t, kMaxPatternSize> partials{};
  std::array<std::uint64_t, kMaxPatternSize> extension_work{};

  RecursiveCounters& operator+=(const RecursiveCounters& o) {
    scalar_ops += o.scalar_ops;
    sets_built += o.sets_built;
    for (std::size_t i = 0; i < kMaxPatternSize; ++i) {
      partials[i] += o.partials[i];
      extension_work[i] += o.extension_work[i];
    }
    return *this;
  }
};

/// Executes the plan over outer-loop vertices [v_begin, v_end).
/// Counters may be null. A non-null `cancel` token is polled inside the
/// enumeration; when it fires the partial count found so far is returned
/// (the caller inspects the token to distinguish completion from
/// interruption).
std::uint64_t recursive_count_range(GraphView g, const MatchingPlan& plan,
                                    VertexId v_begin, VertexId v_end,
                                    RecursiveCounters* counters = nullptr,
                                    const CancelToken* cancel = nullptr);

/// Callback receiving one embedding: mapping[i] = data vertex matched to
/// query vertex i (of the reordered pattern). Return false to stop the
/// enumeration early.
using EmbeddingVisitor = std::function<bool(const std::vector<VertexId>&)>;

/// Like recursive_count_range but invokes `visit` per embedding; stops early
/// when the visitor returns false. Returns the number of embeddings visited.
/// Counters and cancel behave as in recursive_count_range; when the token
/// fires, the embeddings already visited form a valid prefix of the full
/// DFS-order enumeration.
std::uint64_t recursive_enumerate_range(GraphView g, const MatchingPlan& plan,
                                        VertexId v_begin, VertexId v_end,
                                        const EmbeddingVisitor& visit,
                                        RecursiveCounters* counters = nullptr,
                                        const CancelToken* cancel = nullptr);

/// One unit of enumeration work: the plan's loop nest restricted to the
/// iteration range [begin, end) at `level`, under the matched prefix
/// 0..level-1. A host chunk is a level-0 piece over outer vertices
/// [begin, end). A stolen piece carries the victim's prefix, the upper half
/// of its remaining range at `level` (indices into that level's candidate
/// set) and copies of the code-motion sets that levels >= `level` read, so
/// the thief resumes without redoing any set operation.
struct RecursivePiece {
  std::size_t level = 0;
  std::array<VertexId, kMaxPatternSize> prefix{};
  std::size_t begin = 0;
  std::size_t end = 0;
  /// (plan node id, value) of every set materialized at or before `level`
  /// and read at or after it. Empty for level 0.
  std::vector<std::pair<std::int16_t, std::vector<VertexId>>> sets;
};

/// Victim side of STMatch's steal-half protocol, run by donation: an idle
/// worker raises `requests`, and a running executor polls it (one relaxed
/// load) once per iteration at every splittable level, 0..k-2. When it is
/// positive the executor calls offer() with its remaining-work key: the
/// shallowest level with an iteration left after the current one ranks
/// first, then the number of such iterations; 0 means nothing to split. If
/// offer() returns true, the executor hands the upper half of that range to
/// give() and keeps the lower half. offer() never returns true for key 0.
class WorkDonor {
 public:
  explicit WorkDonor(const std::atomic<int>& requests) : requests_(requests) {}
  WorkDonor(const WorkDonor&) = delete;
  WorkDonor& operator=(const WorkDonor&) = delete;
  virtual ~WorkDonor() = default;

  bool wanted() const { return requests_.load(std::memory_order_relaxed) > 0; }
  virtual bool offer(std::uint64_t key) = 0;
  virtual void give(RecursivePiece piece) = 0;

 private:
  const std::atomic<int>& requests_;
};

/// Executes one piece (see RecursivePiece) and returns its match count.
/// `visit` (may be null) receives every embedding in DFS order within the
/// piece; counters and cancel behave as in recursive_count_range. A non-null
/// `donor` lets idle workers split this piece while it runs; the counters of
/// all the pieces of a range then sum to those of one uninterrupted run.
std::uint64_t recursive_run_piece(GraphView g, const MatchingPlan& plan,
                                  RecursivePiece piece,
                                  const EmbeddingVisitor* visit,
                                  RecursiveCounters* counters,
                                  const CancelToken* cancel, WorkDonor* donor);

/// Executes the plan with levels 0 and 1 pre-matched to (v0, v1): the
/// edge-based work decomposition used by Dryadic-style CPU systems.
/// (v0, v1) must satisfy the level-0/1 filters; returns the match count
/// under that prefix.
std::uint64_t recursive_count_seed(GraphView g, const MatchingPlan& plan,
                                   VertexId v0, VertexId v1,
                                   RecursiveCounters* counters = nullptr);

/// Seed-anchored enumeration: like recursive_count_seed but invokes `visit`
/// per embedding (DFS order under the fixed (v0, v1) prefix). Backs the
/// standing-query delta streams, which anchor one enumeration per delta
/// edge.
std::uint64_t recursive_enumerate_seed(GraphView g, const MatchingPlan& plan,
                                       VertexId v0, VertexId v1,
                                       const EmbeddingVisitor& visit,
                                       RecursiveCounters* counters = nullptr);

/// Enumerates the level-0/1 seed pairs of the plan (the "edges" Dryadic
/// distributes). For every valid v0, every valid v1 from level 1's candidate
/// set.
std::vector<std::pair<VertexId, VertexId>> enumerate_seeds(
    GraphView g, const MatchingPlan& plan);

}  // namespace stm
