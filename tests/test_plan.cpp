// Tests for MatchingPlan: chain canonicalization, code-motion DAG
// well-formedness, label-mask merging, compact encoding.
#include <gtest/gtest.h>

#include <vector>

#include "pattern/matching_order.hpp"
#include "pattern/plan.hpp"
#include "pattern/queries.hpp"

namespace stm {
namespace {

MatchingPlan make_plan(const Pattern& p, PlanOptions opts = {}) {
  return MatchingPlan(reorder_for_matching(p), opts);
}

TEST(Plan, RequiresMatchingOrder) {
  // Pattern where identity is not a connected order: vertex 1 isolated from 0.
  Pattern p(3, {{0, 2}, {1, 2}});
  // Order 0,1,2: vertex 1 has no earlier neighbor.
  EXPECT_THROW(MatchingPlan(p, {}), check_error);
  EXPECT_NO_THROW(make_plan(p));
}

TEST(Plan, TriangleChains) {
  MatchingPlan plan = make_plan(Pattern::parse("0-1,1-2,2-0"));
  // Level 1: N(v0); level 2: N(v0) ∩ N(v1).
  auto c1 = plan.chain(1);
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_EQ(c1[0].vertex, 0);
  auto c2 = plan.chain(2);
  ASSERT_EQ(c2.size(), 2u);
  EXPECT_EQ(c2[0].vertex, 0);
  EXPECT_EQ(c2[1].vertex, 1);
  EXPECT_EQ(c2[1].kind, SetOpKind::kIntersect);
}

TEST(Plan, VertexInducedAddsDifferences) {
  // Path 0-1-2 reordered: matching order starts at the middle vertex.
  Pattern p = reorder_for_matching(Pattern::parse("0-1,1-2"));
  MatchingPlan edge_plan(p, {Induced::kEdge, true, CountMode::kEmbeddings});
  MatchingPlan vert_plan(p, {Induced::kVertex, true, CountMode::kEmbeddings});
  // Level 2 in the path: one earlier neighbor, one earlier non-neighbor.
  EXPECT_EQ(edge_plan.chain(2).size(), 1u);
  auto chain = vert_plan.chain(2);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[1].kind, SetOpKind::kDifference);
}

TEST(Plan, ChainBaseIsSmallestNeighborAndAscending) {
  for (int q = 1; q <= num_queries(); ++q) {
    for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
      MatchingPlan plan = make_plan(query(q), {induced, true,
                                               CountMode::kEmbeddings});
      for (std::size_t l = 1; l < plan.size(); ++l) {
        auto chain = plan.chain(l);
        ASSERT_FALSE(chain.empty());
        EXPECT_EQ(chain[0].kind, SetOpKind::kIntersect);
        // Operands after the base are in ascending vertex order (a
        // vertex-induced difference may reference a vertex below the base).
        for (std::size_t i = 2; i < chain.size(); ++i)
          EXPECT_LT(chain[i - 1].vertex, chain[i].vertex);
        // Base is the smallest earlier neighbor.
        for (std::size_t j = 0; j < chain[0].vertex; ++j)
          EXPECT_FALSE(plan.pattern().has_edge(j, l));
      }
    }
  }
}

TEST(Plan, CodeMotionNodesMaterializedAtEarliestLevel) {
  for (int q = 1; q <= num_queries(); ++q) {
    MatchingPlan plan = make_plan(query(q));
    for (const auto& node : plan.nodes()) {
      // Edge-induced chains are ascending, so a node is materialized exactly
      // when its newest operand's vertex is matched.
      EXPECT_EQ(node.mat_level, node.op.vertex + 1) << query_name(q);
    }
    MatchingPlan vplan =
        make_plan(query(q), {Induced::kVertex, true, CountMode::kEmbeddings});
    for (const auto& node : vplan.nodes()) {
      EXPECT_GE(node.mat_level, node.op.vertex + 1) << query_name(q);
      if (node.dep >= 0) {
        const auto& dep = vplan.nodes()[static_cast<std::size_t>(node.dep)];
        EXPECT_EQ(node.mat_level,
                  std::max<int>(node.op.vertex + 1, dep.mat_level))
            << query_name(q);
      }
    }
  }
}

TEST(Plan, NaiveNodesMaterializedAtConsumerLevel) {
  MatchingPlan plan = make_plan(query(16), {Induced::kEdge, false,
                                            CountMode::kEmbeddings});
  // Every node's mat_level equals the level of the candidate it feeds; for a
  // chain node this is at least op.vertex + 1.
  for (const auto& node : plan.nodes())
    EXPECT_GE(node.mat_level, node.op.vertex + 1);
}

TEST(Plan, CodeMotionSharesAcrossLevels) {
  // K6: every level l intersects N(v0)..N(v_{l-1}); prefixes are shared, so
  // the code-motion plan has exactly k-1 set nodes (one new op per level),
  // while the naive plan has 1+2+...+(k-1).
  MatchingPlan motion = make_plan(query(16));
  MatchingPlan naive =
      make_plan(query(16), {Induced::kEdge, false, CountMode::kEmbeddings});
  EXPECT_EQ(motion.num_nodes(), 5u);
  EXPECT_EQ(naive.num_nodes(), 15u);
}

TEST(Plan, StarCandidatesShared) {
  // Star q11 reordered: hub first; all leaf levels share the chain [N(v0)]
  // until differences/labels distinguish them.
  MatchingPlan plan = make_plan(Pattern::parse("0-1,0-2,0-3,0-4"));
  EXPECT_EQ(plan.candidate_node(1), plan.candidate_node(2));
  EXPECT_EQ(plan.candidate_node(2), plan.candidate_node(3));
  EXPECT_EQ(plan.num_nodes(), 1u);
}

TEST(Plan, DependenciesPointToEarlierNodes) {
  for (int q = 1; q <= num_queries(); ++q) {
    for (bool motion : {true, false}) {
      MatchingPlan plan =
          make_plan(query(q), {Induced::kVertex, motion, CountMode::kEmbeddings});
      const auto& nodes = plan.nodes();
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].dep < 0) continue;
        const auto dep = static_cast<std::size_t>(nodes[i].dep);
        ASSERT_LT(dep, nodes.size());
        EXPECT_LE(nodes[dep].mat_level, nodes[i].mat_level);
        // The dep must be materialized before this node at the same level.
        if (nodes[dep].mat_level == nodes[i].mat_level) {
          const auto& order = plan.nodes_at_entry(nodes[i].mat_level);
          auto pos_dep = std::find(order.begin(), order.end(),
                                   static_cast<std::int16_t>(dep));
          auto pos_node = std::find(order.begin(), order.end(),
                                    static_cast<std::int16_t>(i));
          EXPECT_LT(pos_dep, pos_node);
        }
      }
    }
  }
}

TEST(Plan, EveryLevelHasCandidate) {
  for (int q = 1; q <= num_queries(); ++q) {
    MatchingPlan plan = make_plan(query(q));
    for (std::size_t l = 1; l < plan.size(); ++l) {
      auto id = plan.candidate_node(l);
      ASSERT_GE(id, 0);
      EXPECT_TRUE(plan.nodes()[static_cast<std::size_t>(id)].is_candidate);
      EXPECT_LE(plan.nodes()[static_cast<std::size_t>(id)].mat_level, l);
    }
  }
}

TEST(Plan, UnlabeledMasksAllOnes) {
  MatchingPlan plan = make_plan(query(10));
  for (const auto& node : plan.nodes()) EXPECT_EQ(node.label_mask, ~0ULL);
}

TEST(Plan, LabeledCandidateMasksExact) {
  Pattern p = reorder_for_matching(labeled_query(16));
  MatchingPlan plan(p, {});
  for (std::size_t l = 1; l < plan.size(); ++l) {
    const auto& node =
        plan.nodes()[static_cast<std::size_t>(plan.candidate_node(l))];
    EXPECT_EQ(node.label_mask, 1ULL << p.label(l));
  }
}

TEST(Plan, LabeledIntermediateMasksCoverConsumers) {
  // Every node's mask must include the mask of any node depending on it.
  for (int q : {4, 13, 16, 22, 24}) {
    Pattern p = reorder_for_matching(labeled_query(q));
    MatchingPlan plan(p, {});
    for (const auto& node : plan.nodes()) {
      if (node.dep < 0) continue;
      const auto& dep = plan.nodes()[static_cast<std::size_t>(node.dep)];
      EXPECT_EQ(node.label_mask & dep.label_mask, node.label_mask)
          << query_name(q);
    }
  }
}

TEST(Plan, MergedLabelsReduceSetCount) {
  // The merged multi-label scheme (Fig. 10b) must not exceed the split
  // scheme's n(n-1)/2 bound the paper gives for labeled queries.
  for (int q : {8, 16, 24}) {
    Pattern p = reorder_for_matching(labeled_query(q));
    MatchingPlan plan(p, {});
    const std::size_t n = p.size();
    EXPECT_LE(plan.num_nodes(), n * (n - 1) / 2 + n) << query_name(q);
  }
}

TEST(Plan, NumSetsWithinPaperBound) {
  // Paper §VIII-A: for queries of <= 7 nodes, NUM_SETS <= 15.
  for (int q = 1; q <= num_queries(); ++q) {
    MatchingPlan plan = make_plan(query(q));
    EXPECT_LE(plan.num_nodes(), 15u) << query_name(q);
    Pattern lp = reorder_for_matching(labeled_query(q));
    MatchingPlan lplan(lp, {});
    EXPECT_LE(lplan.num_nodes(), 21u) << query_name(q);
  }
}

TEST(Plan, CompactEncodingShape) {
  MatchingPlan plan = make_plan(query(4));
  auto enc = plan.compact_encoding();
  ASSERT_EQ(enc.row_ptr.size(), plan.size() + 1);
  EXPECT_EQ(enc.row_ptr.front(), 0);
  EXPECT_EQ(enc.row_ptr.back(), plan.num_nodes());
  EXPECT_EQ(enc.set_ops.size(), plan.num_nodes());
  for (std::size_t l = 0; l < plan.size(); ++l)
    EXPECT_LE(enc.row_ptr[l], enc.row_ptr[l + 1]);
  // Triples are consistent: base nodes flagged, dep indices in range.
  for (std::size_t i = 0; i < enc.set_ops.size(); ++i) {
    if (enc.set_ops[i][0] == 0) {
      EXPECT_LT(enc.set_ops[i][2], i);
    }
  }
}

TEST(Plan, SymmetryConstraintsOnlyInUniqueMode) {
  MatchingPlan embeddings = make_plan(query(8));
  EXPECT_TRUE(embeddings.constraints().empty());
  MatchingPlan unique =
      make_plan(query(8), {Induced::kEdge, true, CountMode::kUniqueSubgraphs});
  EXPECT_FALSE(unique.constraints().empty());
  // K5: constraints form a total order -> level l has l smaller-side checks.
  for (std::size_t l = 1; l < unique.size(); ++l)
    EXPECT_EQ(unique.constraints_at(l).size(), l);
}

TEST(Plan, CarriedSetsFollowTheStealRule) {
  // A piece split off at level t carries exactly the nodes materialized by
  // t that a level >= t still reads: as the candidate set of a level
  // >= max(t, 1) or as the dep of a node materialized after t. Ids ascend.
  for (int q = 1; q <= num_queries(); ++q) {
    for (bool motion : {true, false}) {
      for (Induced induced : {Induced::kEdge, Induced::kVertex}) {
        const MatchingPlan plan =
            make_plan(query(q), {induced, motion, CountMode::kEmbeddings});
        const auto& nodes = plan.nodes();
        EXPECT_TRUE(plan.carried(0).empty()) << query_name(q);
        for (std::size_t t = 1; t < plan.size(); ++t) {
          std::vector<std::int16_t> expected;
          for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (nodes[i].mat_level > t) continue;
            const auto id = static_cast<std::int16_t>(i);
            bool read = false;
            for (std::size_t l = t; l < plan.size(); ++l)
              read |= plan.candidate_node(l) == id;
            for (const SetNode& n : nodes)
              read |= n.dep == id && n.mat_level > t;
            if (read) expected.push_back(id);
          }
          EXPECT_EQ(plan.carried(t), expected)
              << query_name(q) << " level " << t << " motion " << motion;
        }
      }
    }
  }
  // Triangle: N(v0) is level 1's candidate and level 2's dep; level 2
  // carries only its own candidate N(v0) & N(v1).
  const MatchingPlan tri = make_plan(Pattern::parse("0-1,1-2,2-0"));
  ASSERT_EQ(tri.num_nodes(), 2u);
  EXPECT_EQ(tri.carried(1), (std::vector<std::int16_t>{0}));
  EXPECT_EQ(tri.carried(2), (std::vector<std::int16_t>{1}));
}

TEST(Plan, TooSmallPatternRejected) {
  Pattern p(1, {});
  EXPECT_THROW(MatchingPlan(p, {}), check_error);
}

}  // namespace
}  // namespace stm
