// Connected components and related diagnostics (test support: the dataset
// integration tests check generator connectivity with them).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace stm {

/// Component id per vertex (ids are 0-based, assigned in discovery order).
std::vector<VertexId> connected_components(const Graph& g);

/// Number of connected components (0 for an empty graph).
std::size_t num_components(const Graph& g);

/// Size of the largest connected component.
std::size_t largest_component_size(const Graph& g);

/// The subgraph induced by the largest component, relabeled compactly.
/// Labels are preserved.
Graph largest_component(const Graph& g);

}  // namespace stm
