// Tests for reordering and the embedding-listing executor.
#include <gtest/gtest.h>

#include <set>

#include "baselines/reference.hpp"
#include "core/recursive.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "graph/reorder.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"

namespace stm {
namespace {

TEST(Reorder, DegreeDescendingSortsDegrees) {
  Graph g = make_barabasi_albert(120, 4, 3);
  Graph r = reorder_graph(g, ReorderKind::kDegreeDescending);
  for (VertexId v = 1; v < r.num_vertices(); ++v)
    EXPECT_LE(r.degree(v), r.degree(v - 1));
}

TEST(Reorder, DegreeAscendingSortsDegrees) {
  Graph g = make_barabasi_albert(100, 3, 5);
  Graph r = reorder_graph(g, ReorderKind::kDegreeAscending);
  for (VertexId v = 1; v < r.num_vertices(); ++v)
    EXPECT_GE(r.degree(v), r.degree(v - 1));
}

TEST(Reorder, PreservesStructure) {
  Graph g = make_barabasi_albert(80, 3, 9);
  for (auto kind : {ReorderKind::kDegreeDescending, ReorderKind::kBfs}) {
    Graph r = reorder_graph(g, kind);
    EXPECT_EQ(r.num_vertices(), g.num_vertices());
    EXPECT_EQ(r.num_edges(), g.num_edges());
    // Match counts are isomorphism-invariant.
    for (int q : {3, 5}) {
      EXPECT_EQ(reference_count(r, query(q)), reference_count(g, query(q)));
    }
  }
}

TEST(Reorder, PermutationRoundTrip) {
  Graph g = make_erdos_renyi(50, 0.15, 2);
  auto perm = reorder_permutation(g, ReorderKind::kBfs);
  // perm is a permutation of [0, n).
  std::set<VertexId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), g.num_vertices());
  Graph r = apply_reorder(g, perm);
  EXPECT_EQ(r.num_edges(), g.num_edges());
}

TEST(Reorder, LabelsFollowVertices) {
  Graph g = with_random_labels(make_barabasi_albert(60, 3, 4), 5, 8);
  auto perm = reorder_permutation(g, ReorderKind::kDegreeDescending);
  Graph r = apply_reorder(g, perm);
  for (VertexId new_id = 0; new_id < r.num_vertices(); ++new_id)
    EXPECT_EQ(r.label(new_id), g.label(perm[new_id]));
}

TEST(Reorder, RejectsNonPermutation) {
  Graph g = make_cycle(4);
  EXPECT_THROW(apply_reorder(g, {0, 0, 1, 2}), check_error);
  EXPECT_THROW(apply_reorder(g, {0, 1, 2}), check_error);
}

TEST(Enumerate, VisitsEveryEmbedding) {
  Graph g = make_erdos_renyi(25, 0.25, 3);
  Pattern p = query(3);
  MatchingPlan plan(reorder_for_matching(p), {});
  std::uint64_t seen = 0;
  auto visited = recursive_enumerate_range(
      g, plan, 0, g.num_vertices(), [&](const std::vector<VertexId>& m) {
        ++seen;
        // Valid embedding: distinct vertices, edges present.
        for (std::size_t i = 0; i < m.size(); ++i)
          for (std::size_t j = i + 1; j < m.size(); ++j) {
            EXPECT_NE(m[i], m[j]);
            if (plan.pattern().has_edge(i, j)) {
              EXPECT_TRUE(g.has_edge(m[i], m[j]));
            }
          }
        return true;
      });
  EXPECT_EQ(seen, visited);
  EXPECT_EQ(visited, reference_count(g, p));
}

TEST(Enumerate, EarlyStop) {
  Graph g = make_clique(8);
  MatchingPlan plan(reorder_for_matching(query(3)), {});
  std::uint64_t seen = 0;
  auto visited = recursive_enumerate_range(
      g, plan, 0, g.num_vertices(), [&](const std::vector<VertexId>&) {
        return ++seen < 10;  // stop after 10
      });
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(visited, 10u);
}

TEST(Enumerate, UniqueModeEmitsCanonicalOnly) {
  Graph g = make_clique(5);
  PlanOptions popts{Induced::kEdge, true, CountMode::kUniqueSubgraphs};
  MatchingPlan plan(reorder_for_matching(Pattern::parse("0-1,1-2,2-0")),
                    popts);
  std::set<std::set<VertexId>> subgraphs;
  recursive_enumerate_range(g, plan, 0, g.num_vertices(),
                            [&](const std::vector<VertexId>& m) {
                              subgraphs.insert({m.begin(), m.end()});
                              return true;
                            });
  EXPECT_EQ(subgraphs.size(), 10u);  // C(5,3) distinct triangles
}

}  // namespace
}  // namespace stm
