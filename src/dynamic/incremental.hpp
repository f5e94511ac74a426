// Incremental (delta) pattern matching over graph snapshots.
//
// Given the version a batch was applied to and the effective delta edges,
// IncrementalMatcher computes the exact change the batch causes — in the
// match count (count_delta) or as the embeddings added and retracted
// (embedding_delta) — without re-enumerating the whole graph. Enumeration
// is anchored on delta edges only: every pattern edge takes a turn as the
// anchor (relabeled so the anchor spans levels 0 and 1), and for each delta
// edge both seed orientations run through the unmodified host or SIMT
// engine against the prefix overlays of for_each_prefix_edge
// (dynamic_graph.hpp), whose inclusion–exclusion counts every affected
// match exactly once — cumulative deltas agree with full re-enumeration bit
// for bit. count_containing is the same anchored count for one data edge;
// the sharded coordinator (dist/) sums it over its cut edges.
//
// Unique-subgraph counts are derived from embedding deltas divided by the
// pattern's automorphism count (symmetry-breaking constraints do not
// commute with anchoring). Vertex-induced matching is rejected: an induced
// match can appear or vanish without containing any delta edge (a non-edge
// constraint elsewhere flips), so delta-edge anchoring cannot be exact.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/emit.hpp"
#include "core/host_engine.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "pattern/pattern.hpp"
#include "pattern/plan.hpp"

namespace stm {

/// Which engine executes the anchored enumerations.
enum class DeltaEngine : std::uint8_t {
  kHost = 0,  // sequential seeded recursion (production CPU path)
  kSimt,      // simulated-GPU stack engine with a pinned level-0/1 seed
};

struct IncrementalOptions {
  /// Matching semantics of the standing count. induced must be kEdge.
  PlanOptions plan;
  DeltaEngine engine = DeltaEngine::kHost;
  /// SIMT-path device configuration for engine == kSimt (v_begin/v_end and
  /// pin_v1 are overwritten per anchored run).
  EngineConfig simt;
};

/// The outcome of one batch's delta computation.
struct DeltaMatchResult {
  /// Exact change in the match count (new minus old), in the requested
  /// CountMode.
  std::int64_t delta = 0;
  /// Anchored engine invocations issued (pattern edges x delta edges x
  /// orientations, minus label-pruned seeds).
  std::uint64_t anchored_runs = 0;
  /// Effective delta edges processed.
  std::uint64_t delta_edges = 0;
};

/// The embeddings one batch added and retracted, in original-pattern vertex
/// order (embedding[i] = data vertex matched to pattern vertex i) and
/// lexicographically sorted within each list — an order independent of the
/// anchor iteration. The lists are disjoint: an effective delta never both
/// deletes and inserts the same edge.
struct EmbeddingDelta {
  /// Embeddings present after the batch but not before.
  std::vector<Embedding> added;
  /// Embeddings present before the batch but not after.
  std::vector<Embedding> retracted;
};

class IncrementalMatcher {
 public:
  /// Compiles one anchored plan per pattern edge. Throws check_error for
  /// vertex-induced options or patterns with fewer than two vertices.
  explicit IncrementalMatcher(const Pattern& pattern,
                              IncrementalOptions opts = {});

  /// Embeddings containing data edge (u, v) in `g`, summed over all anchors
  /// and both orientations — always in kEmbeddings units; callers counting
  /// unique subgraphs divide aggregated totals by automorphisms().
  /// Increments *runs per engine invocation issued.
  std::uint64_t count_containing(GraphView g, VertexId u, VertexId v,
                                 std::uint64_t* runs) const;

  /// Exact match-count change caused by applying `applied` to the version
  /// `from` (i.e. count(from + applied) - count(from)). `applied` must be
  /// the effective delta as reported by MutableGraph::apply — normalized,
  /// insertions absent from and deletions present in `from`.
  DeltaMatchResult count_delta(
      const std::shared_ptr<const GraphSnapshot>& from,
      const DeltaEdges& applied) const;

  /// The embedding-level change caused by the same batch (arguments as for
  /// count_delta). Each changed embedding is enumerated exactly once: an
  /// injective map puts exactly one pattern edge onto the delta edge it is
  /// credited at, so exactly one (anchor, orientation) pair finds it.
  /// Enumeration always rides the seeded host recursion, whatever the
  /// configured DeltaEngine (the engines agree bit-exactly; the recursion
  /// is the one with a visitor). Throws check_error unless the count mode
  /// is kEmbeddings: a subgraph can have several embeddings, so retracting
  /// "a subgraph" is ill-defined at embedding granularity.
  EmbeddingDelta embedding_delta(
      const std::shared_ptr<const GraphSnapshot>& from,
      const DeltaEdges& applied) const;

  const Pattern& pattern() const { return pattern_; }
  const IncrementalOptions& options() const { return opts_; }
  /// |Aut(pattern)| — the embeddings-per-subgraph factor (1 unless the
  /// options request kUniqueSubgraphs).
  std::uint64_t automorphisms() const { return automorphisms_; }
  std::size_t num_anchors() const { return anchors_.size(); }

 private:
  /// Calls fn(anchor index, s0, s1) for every anchored plan and both seed
  /// orientations of data edge (u, v) whose labels fit the anchor, counting
  /// each call in *runs.
  template <class Fn>
  void for_each_seed(GraphView g, VertexId u, VertexId v, std::uint64_t* runs,
                     Fn&& fn) const;

  Pattern pattern_;
  IncrementalOptions opts_;
  std::vector<MatchingPlan> anchors_;  // anchor edge at levels 0/1
  /// anchor_perms_[a][i] = original pattern vertex at position i of anchored
  /// plan a; inverts the anchor relabeling when emitting embeddings.
  std::vector<std::vector<std::size_t>> anchor_perms_;
  std::uint64_t automorphisms_ = 1;
};

}  // namespace stm
