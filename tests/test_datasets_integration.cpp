// Integration tests: the dataset proxies driven end-to-end through the
// engines at tiny scale, plus skewed-variant properties.
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "components.hpp"
#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "graph/datasets.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"

namespace stm {
namespace {

TEST(DatasetIntegration, CliqueQueriesHaveMatchesOnEveryProxy) {
  // The planted dense cores guarantee non-zero clique counts (paper Table II
  // has matches for q8/q16/q24 on every dataset).
  for (const auto& name : dataset_names()) {
    Graph g = make_dataset(name, 0.25);
    for (int q : {8, 16, 24}) {
      EXPECT_GT(stmatch_match_pattern(g, query(q)).count, 0u)
          << name << " " << query_name(q);
    }
  }
}

TEST(DatasetIntegration, EngineMatchesReferenceOnProxies) {
  for (const auto& name : {"wiki_vote", "youtube"}) {
    Graph g = make_dataset(name, 0.12);
    for (int q : {2, 5, 10}) {
      EXPECT_EQ(stmatch_match_pattern(g, query(q)).count,
                reference_count(g, query(q)))
          << name << " " << query_name(q);
    }
  }
}

TEST(DatasetIntegration, LabeledProxyEndToEnd) {
  Graph g = make_labeled_dataset("enron", 0.3, 3);
  Pattern p = labeled_query(12, 3);
  MatchingPlan plan(reorder_for_matching(p), {});
  const auto sim = stmatch_match(g, plan).count;
  EXPECT_EQ(sim, reference_count(g, p));
  HostEngineConfig host_cfg;
  host_cfg.num_threads = 2;
  EXPECT_EQ(host_match(g, plan, host_cfg).count, sim);
}

TEST(DatasetIntegration, ProxiesMostlyConnected) {
  // BA proxies are connected by construction; RMAT proxies have a giant
  // component holding most vertices with edges.
  for (const auto& name : {"wiki_vote", "enron", "mico", "livejournal"}) {
    Graph g = make_dataset(name, 0.5);
    EXPECT_GT(largest_component_size(g),
              static_cast<std::size_t>(g.num_vertices()) * 9 / 10)
        << name;
  }
}

TEST(SkewedDatasets, BuildDeterministicallyWithHighHubs) {
  for (const auto& name :
       {"enron", "youtube", "mico", "livejournal", "orkut"}) {
    Graph a = make_skewed_dataset(name, 1.0);
    Graph b = make_skewed_dataset(name, 1.0);
    EXPECT_EQ(a.col_idx(), b.col_idx()) << name;
    EXPECT_LE(a.max_degree(), 96u) << name;
    // Skew: hubs far above the capped Table I proxies.
    EXPECT_GT(a.max_degree(), 48u) << name;
    EXPECT_FALSE(a.is_labeled());
  }
}

TEST(SkewedDatasets, LabeledVariantAndScale) {
  Graph g = make_skewed_dataset("mico", 0.5, 4);
  EXPECT_TRUE(g.is_labeled());
  EXPECT_EQ(g.num_labels(), 4u);
  Graph big = make_skewed_dataset("mico", 2.0);
  EXPECT_GT(big.num_vertices(), g.num_vertices() * 3);
}

TEST(SkewedDatasets, UnknownNameThrows) {
  EXPECT_THROW(make_skewed_dataset("wiki_vote"), check_error);
}

TEST(SkewedDatasets, StealingPaysOffOnSkew) {
  // The property Fig. 12 relies on: local stealing shortens the makespan on
  // the hub-heavy variants.
  Graph g = make_skewed_dataset("enron", 1.0, 2);
  Pattern p = labeled_query(9, 2);
  EngineConfig no_steal;
  no_steal.device.num_blocks = 16;
  no_steal.device.warps_per_block = 4;
  no_steal.local_steal = false;
  no_steal.global_steal = false;
  EngineConfig steal = no_steal;
  steal.local_steal = true;
  auto a = stmatch_match_pattern(g, p, {}, no_steal);
  auto b = stmatch_match_pattern(g, p, {}, steal);
  EXPECT_EQ(a.count, b.count);
  EXPECT_LT(b.stats.makespan_cycles, a.stats.makespan_cycles);
}

}  // namespace
}  // namespace stm
