// Tests for the connected-components test support module.
#include <gtest/gtest.h>

#include "components.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace stm {
namespace {

TEST(Components, SingleComponent) {
  EXPECT_EQ(num_components(make_cycle(10)), 1u);
  EXPECT_EQ(largest_component_size(make_cycle(10)), 10u);
}

TEST(Components, MultipleComponents) {
  GraphBuilder b(10);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(4, 5);
  Graph g = b.build();  // {0,1,2}, {4,5}, and 5 isolated vertices
  EXPECT_EQ(num_components(g), 7u);
  EXPECT_EQ(largest_component_size(g), 3u);
  Graph big = largest_component(g);
  EXPECT_EQ(big.num_vertices(), 3u);
  EXPECT_EQ(big.num_edges(), 2u);
}

TEST(Components, EmptyGraph) {
  Graph g = GraphBuilder(0).build();
  EXPECT_EQ(num_components(g), 0u);
  EXPECT_EQ(largest_component_size(g), 0u);
}

TEST(Components, LabelsPreservedInExtraction) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  Graph g = b.build().with_labels({9, 8, 7, 6, 5, 4});
  Graph big = largest_component(g);
  ASSERT_EQ(big.num_vertices(), 3u);
  EXPECT_EQ(big.label(0), 7);  // old vertex 2
  EXPECT_EQ(big.label(2), 5);  // old vertex 4
}

TEST(Components, BaGraphIsConnected) {
  EXPECT_EQ(num_components(make_barabasi_albert(500, 3, 77)), 1u);
}

}  // namespace
}  // namespace stm
