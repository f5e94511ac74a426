#include "components.hpp"

#include <algorithm>
#include <deque>

namespace stm {

std::vector<VertexId> connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  constexpr VertexId kUnassigned = ~VertexId{0};
  std::vector<VertexId> component(n, kUnassigned);
  VertexId next_id = 0;
  std::deque<VertexId> queue;
  for (VertexId seed = 0; seed < n; ++seed) {
    if (component[seed] != kUnassigned) continue;
    component[seed] = next_id;
    queue.push_back(seed);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      for (VertexId u : g.neighbors(v)) {
        if (component[u] == kUnassigned) {
          component[u] = next_id;
          queue.push_back(u);
        }
      }
    }
    ++next_id;
  }
  return component;
}

std::size_t num_components(const Graph& g) {
  auto component = connected_components(g);
  VertexId max_id = 0;
  for (VertexId c : component) max_id = std::max(max_id, c + 1);
  return max_id;
}

std::size_t largest_component_size(const Graph& g) {
  auto component = connected_components(g);
  std::vector<std::size_t> sizes;
  for (VertexId c : component) {
    if (c >= sizes.size()) sizes.resize(c + 1, 0);
    ++sizes[c];
  }
  std::size_t best = 0;
  for (auto s : sizes) best = std::max(best, s);
  return best;
}

Graph largest_component(const Graph& g) {
  auto component = connected_components(g);
  std::vector<std::size_t> sizes;
  for (VertexId c : component) {
    if (c >= sizes.size()) sizes.resize(c + 1, 0);
    ++sizes[c];
  }
  VertexId best = 0;
  for (VertexId c = 0; c < sizes.size(); ++c)
    if (sizes[c] > sizes[best]) best = c;

  const VertexId n = g.num_vertices();
  constexpr VertexId kAbsent = ~VertexId{0};
  std::vector<VertexId> compact(n, kAbsent);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v)
    if (component[v] == best) compact[v] = next++;

  GraphBuilder b(next);
  std::vector<Label> labels;
  for (VertexId v = 0; v < n; ++v) {
    if (compact[v] == kAbsent) continue;
    if (g.is_labeled()) labels.push_back(g.label(v));
    for (VertexId u : g.neighbors(v))
      if (v < u && compact[u] != kAbsent) b.add_edge(compact[v], compact[u]);
  }
  Graph out = b.build();
  if (g.is_labeled()) out = out.with_labels(std::move(labels));
  return out;
}

}  // namespace stm
