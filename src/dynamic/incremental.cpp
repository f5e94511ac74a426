#include "dynamic/incremental.hpp"

#include <algorithm>

#include "core/engine.hpp"
#include "core/recursive.hpp"
#include "pattern/symmetry.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

/// Relabels `p` so that anchor edge (a, b) sits at levels 0/1 and the rest
/// follows a greedy connected order (max connectivity to the prefix, ties by
/// degree then smallest id — the same heuristic as matching_order, with the
/// seed forced).
Pattern anchored_pattern(const Pattern& p, std::size_t a, std::size_t b,
                         std::vector<std::size_t>* perm_out) {
  const std::size_t k = p.size();
  std::vector<std::size_t> perm{a, b};
  std::vector<bool> used(k, false);
  used[a] = used[b] = true;
  while (perm.size() < k) {
    std::size_t best = k;
    std::size_t best_conn = 0;
    for (std::size_t v = 0; v < k; ++v) {
      if (used[v]) continue;
      std::size_t conn = 0;
      for (std::size_t u : perm) conn += p.has_edge(u, v) ? 1 : 0;
      if (conn == 0) continue;  // keep the order connected
      const bool better =
          best == k || conn > best_conn ||
          (conn == best_conn && (p.degree(v) > p.degree(best) ||
                                 (p.degree(v) == p.degree(best) && v < best)));
      if (better) {
        best = v;
        best_conn = conn;
      }
    }
    STM_CHECK_MSG(best < k, "pattern must be connected");
    perm.push_back(best);
    used[best] = true;
  }
  if (perm_out != nullptr) *perm_out = perm;
  return p.relabeled(perm);
}

bool label_ok(GraphView g, std::uint64_t mask, VertexId v) {
  return !g.is_labeled() || ((mask >> g.label(v)) & 1ULL);
}

}  // namespace

IncrementalMatcher::IncrementalMatcher(const Pattern& pattern,
                                       IncrementalOptions opts)
    : pattern_(pattern), opts_(opts) {
  STM_CHECK_MSG(opts_.plan.induced == Induced::kEdge,
                "anchored enumeration supports edge-induced semantics only: "
                "a vertex-induced match can change without containing the "
                "anchor edge");
  STM_CHECK_MSG(pattern_.size() >= 2, "pattern must have at least two vertices");

  // One anchored plan per (unordered) pattern edge, always compiled in
  // kEmbeddings mode: symmetry-breaking constraints assume the engine's own
  // vertex order and would miscount under a forced anchor. Subgraph counts
  // are recovered by dividing aggregated embeddings by |Aut(pattern)|.
  PlanOptions anchor_opts = opts_.plan;
  anchor_opts.count_mode = CountMode::kEmbeddings;
  for (std::size_t a = 0; a < pattern_.size(); ++a)
    for (std::size_t b = a + 1; b < pattern_.size(); ++b)
      if (pattern_.has_edge(a, b)) {
        std::vector<std::size_t> perm;
        anchors_.emplace_back(anchored_pattern(pattern_, a, b, &perm),
                              anchor_opts);
        anchor_perms_.push_back(std::move(perm));
      }

  if (opts_.plan.count_mode == CountMode::kUniqueSubgraphs) {
    automorphisms_ = stm::automorphisms(pattern_).size();
  }
}

template <class Fn>
void IncrementalMatcher::for_each_seed(GraphView g, VertexId u, VertexId v,
                                       std::uint64_t* runs, Fn&& fn) const {
  for (std::size_t a = 0; a < anchors_.size(); ++a) {
    const MatchingPlan& plan = anchors_[a];
    const std::pair<VertexId, VertexId> seeds[2] = {{u, v}, {v, u}};
    for (const auto& [s0, s1] : seeds) {
      if (!label_ok(g, plan.exact_mask(0), s0) ||
          !label_ok(g, plan.exact_mask(1), s1))
        continue;
      ++*runs;
      fn(a, s0, s1);
    }
  }
}

std::uint64_t IncrementalMatcher::count_containing(GraphView g, VertexId u,
                                                   VertexId v,
                                                   std::uint64_t* runs) const {
  std::uint64_t total = 0;
  for_each_seed(g, u, v, runs, [&](std::size_t a, VertexId s0, VertexId s1) {
    if (opts_.engine == DeltaEngine::kHost) {
      total += recursive_count_seed(g, anchors_[a], s0, s1);
    } else {
      EngineConfig cfg = opts_.simt;
      cfg.v_begin = s0;
      cfg.v_end = s0 + 1;
      cfg.v_stride = 1;
      cfg.pin_v1 = s1;
      total += stmatch_match(g, anchors_[a], cfg).count;
    }
  });
  return total;
}

DeltaMatchResult IncrementalMatcher::count_delta(
    const std::shared_ptr<const GraphSnapshot>& from,
    const DeltaEdges& applied) const {
  DeltaMatchResult result;
  result.delta_edges = applied.size();
  std::int64_t delta = 0;
  for_each_prefix_edge(
      from, applied, [&](GraphView g, VertexId u, VertexId v, int sign) {
        delta += sign * static_cast<std::int64_t>(
                            count_containing(g, u, v, &result.anchored_runs));
      });
  if (opts_.plan.count_mode == CountMode::kUniqueSubgraphs) {
    const auto aut = static_cast<std::int64_t>(automorphisms());
    STM_CHECK_MSG(delta % aut == 0,
                  "embedding delta " << delta << " not divisible by |Aut| "
                                     << aut);
    delta /= aut;
  }
  result.delta = delta;
  return result;
}

EmbeddingDelta IncrementalMatcher::embedding_delta(
    const std::shared_ptr<const GraphSnapshot>& from,
    const DeltaEdges& applied) const {
  STM_CHECK_MSG(opts_.plan.count_mode == CountMode::kEmbeddings,
                "embedding deltas require kEmbeddings count mode");
  EmbeddingDelta out;
  const std::size_t k = pattern_.size();
  std::uint64_t runs = 0;
  for_each_prefix_edge(
      from, applied, [&](GraphView g, VertexId u, VertexId v, int sign) {
        std::vector<Embedding>& into = sign > 0 ? out.added : out.retracted;
        for_each_seed(g, u, v, &runs,
                      [&](std::size_t a, VertexId s0, VertexId s1) {
                        const auto& perm = anchor_perms_[a];
                        recursive_enumerate_seed(
                            g, anchors_[a], s0, s1,
                            [&](const std::vector<VertexId>& mapping) {
                              Embedding& orig = into.emplace_back(k);
                              for (std::size_t i = 0; i < k; ++i)
                                orig[perm[i]] = mapping[i];
                              return true;
                            });
                      });
      });
  std::sort(out.added.begin(), out.added.end());
  std::sort(out.retracted.begin(), out.retracted.end());
  return out;
}

}  // namespace stm
