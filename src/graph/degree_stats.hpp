// Degree statistics (paper Table I columns) and shard balance reporting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace stm {

/// The statistics the paper reports per dataset in Table I.
struct DegreeStats {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  EdgeId max_degree = 0;
  double median_degree = 0.0;
  double mean_degree = 0.0;
  /// Fraction of vertices whose degree exceeds the slab capacity
  /// (the paper's "Deg. > 4096" column, parameterized by `cap`).
  double frac_above_cap = 0.0;
};

DegreeStats compute_degree_stats(const Graph& g, EdgeId cap);

/// All vertex degrees (for histograms/tests).
std::vector<EdgeId> degree_sequence(const Graph& g);

/// Per-shard tallies of a vertex-disjoint ownership assignment.
struct ShardBalance {
  std::uint32_t shard = 0;
  VertexId vertices = 0;
  /// Edges with both endpoints owned by this shard.
  EdgeId intra_edges = 0;
  /// Cut edges incident to an owned vertex (each cut edge appears in the
  /// tally of both endpoint shards).
  EdgeId incident_cut_edges = 0;
  /// Scheduling load proxy: intra edges plus half of each incident cut edge.
  double edge_load() const {
    return static_cast<double>(intra_edges) +
           0.5 * static_cast<double>(incident_cut_edges);
  }
};

/// Balance report over an ownership vector — behind Partition::balance and
/// the tools/partition_info CLI. (The session's shard_imbalance gauge is
/// computed separately, by UpdatePath::rebuild_shards.)
struct BalanceReport {
  std::vector<ShardBalance> shards;
  /// Distinct edges whose endpoints are owned by different shards.
  EdgeId cut_edges = 0;
  /// cut_edges / num_edges (0 for edgeless graphs).
  double cut_fraction = 0.0;
  /// max / mean owned vertices over shards (1.0 = perfectly balanced).
  double vertex_imbalance = 1.0;
  /// max / mean edge_load over shards (1.0 = perfectly balanced).
  double edge_imbalance = 1.0;
};

/// Computes per-shard vertex/edge/cut tallies and imbalance ratios.
/// `owner[v]` must be < num_shards for every vertex; num_shards >= 1.
BalanceReport balance_report(const Graph& g,
                             const std::vector<std::uint32_t>& owner,
                             std::uint32_t num_shards);

}  // namespace stm
