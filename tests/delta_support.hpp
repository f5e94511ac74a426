// Shared support for the dynamic-graph tests: random update batches, the
// brute-force embedding lists deltas are checked against, and the
// randomized incremental differential (IncrementalDifferential runs a short
// version, DeepSweep the long one).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "core/emit.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/pattern.hpp"
#include "util/rng.hpp"

namespace stm {

/// A random valid batch against the current version: random pairs become
/// deletions when present, insertions when absent (so insertions and
/// deletions can never overlap).
inline UpdateBatch random_batch(const GraphSnapshot& snap, Rng& rng,
                                int num_edges) {
  const VertexId n = snap.num_vertices();
  UpdateBatch batch;
  for (int i = 0; i < num_edges; ++i) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = static_cast<VertexId>(rng() % n);
    if (u == v) continue;
    if (snap.has_edge(u, v)) {
      batch.deletions.emplace_back(u, v);
    } else {
      batch.insertions.emplace_back(u, v);
    }
  }
  return batch;
}

/// Brute-force embedding list in original-pattern vertex order (the
/// reference enumerator reports plan-order mappings), sorted.
inline std::vector<Embedding> reference_embeddings(GraphView g,
                                                   const Pattern& p) {
  const std::vector<std::size_t> order = matching_order(p);
  std::vector<Embedding> ref;
  std::vector<VertexId> orig(p.size());
  reference_enumerate(g, p, {}, [&](const std::vector<VertexId>& m) {
    for (std::size_t i = 0; i < order.size(); ++i) orig[order[i]] = m[i];
    ref.push_back(orig);
  });
  std::sort(ref.begin(), ref.end());
  return ref;
}

/// Applies `num_batches` random insert+delete batches and checks, after
/// every batch, the count tracked through count_delta against full
/// re-enumeration of the compacted graph, and embedding_delta against the
/// sorted set differences of the brute-force embedding lists before and
/// after the batch. Returns the number of batches checked.
inline int run_differential(const Pattern& pattern, DeltaEngine engine,
                            std::uint64_t seed, int num_batches,
                            int batch_edges) {
  Graph base = make_erdos_renyi(36, 0.15, seed);
  MutableGraph g(base);

  IncrementalOptions opts;
  opts.engine = engine;
  IncrementalMatcher matcher(pattern, opts);

  ReferenceOptions ref;
  ref.induced = opts.plan.induced;
  ref.count_mode = opts.plan.count_mode;

  Rng rng(seed * 7919 + 13);
  std::int64_t count = static_cast<std::int64_t>(
      reference_count(g.snapshot()->view(), pattern, ref));
  std::vector<Embedding> before =
      reference_embeddings(g.snapshot()->view(), pattern);
  int checked = 0;
  for (int i = 0; i < num_batches; ++i) {
    auto from = g.snapshot();
    UpdateBatch batch = random_batch(*from, rng, batch_edges);
    ApplyResult applied = g.apply(batch);
    DeltaMatchResult d = matcher.count_delta(from, applied.applied);
    count += d.delta;
    const Graph compacted = applied.snapshot->compacted();
    const std::uint64_t full =
        reference_count(GraphView(compacted), pattern, ref);
    EXPECT_EQ(count, static_cast<std::int64_t>(full))
        << "engine=" << static_cast<int>(engine) << " seed=" << seed
        << " batch=" << i;

    std::vector<Embedding> after =
        reference_embeddings(GraphView(compacted), pattern);
    EmbeddingDelta want;
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(want.added));
    std::set_difference(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(want.retracted));
    const EmbeddingDelta got = matcher.embedding_delta(from, applied.applied);
    EXPECT_EQ(got.added, want.added)
        << "added embeddings, seed=" << seed << " batch=" << i;
    EXPECT_EQ(got.retracted, want.retracted)
        << "retracted embeddings, seed=" << seed << " batch=" << i;

    if (count != static_cast<std::int64_t>(full) ||
        got.added != want.added || got.retracted != want.retracted)
      return checked;
    before = std::move(after);
    ++checked;
  }
  return checked;
}

}  // namespace stm
