// Snapshot-backed adjacency view.
//
// GraphView is the adjacency interface the engines execute against: a
// non-owning handle over a base adjacency provider plus up to two override
// layers that remap individual vertices to externally owned merged neighbor
// lists. The base is either a raw CSR (a plain Graph converts implicitly, so
// every existing engine call site keeps working) or an AdjacencySource — the
// seam the storage subsystem plugs compressed / bitset / spill backends into
// without any engine knowing which representation it is reading.
//
// The dynamic-graph subsystem builds views whose dirty vertices read
// base-plus-delta adjacency without rebuilding the CSR (GraphSnapshot =
// layer 1, a transient DeltaOverlay = layer 0 on top).
//
// A view is valid only while its backing storage (the Graph or
// AdjacencySource, and the snapshot/overlay that owns the override tables)
// stays alive; views are cheap value types meant to be created per engine
// run.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/check.hpp"

namespace stm {

/// Abstract adjacency provider a GraphView can read instead of a raw CSR.
/// Implementations must return sorted-ascending neighbor spans that stay
/// valid for the lifetime of the source (or, for storage backends, for the
/// duration of an outstanding decode lease — see src/storage/store.hpp).
class AdjacencySource {
 public:
  virtual ~AdjacencySource() = default;

  virtual VertexId source_num_vertices() const = 0;
  /// Sorted neighbor list of v. May decode/materialize on first access.
  virtual std::span<const VertexId> source_neighbors(VertexId v) const = 0;
  /// Degree without materializing the list.
  virtual EdgeId source_degree(VertexId v) const = 0;
  /// Adjacency test without materializing the list (bitset probe or
  /// anchored seek on compressed backends).
  virtual bool source_has_edge(VertexId u, VertexId v) const = 0;
  /// Directed adjacency entries (2 x undirected edges).
  virtual EdgeId source_num_adjacency_entries() const = 0;
  /// Raw label array (nullptr when unlabeled).
  virtual const Label* source_labels() const = 0;
};

class GraphView {
 public:
  /// One override layer: slots[v] >= 0 redirects v's adjacency to
  /// (*lists)[slots[v]] (sorted ascending); -1 falls through.
  struct OverrideLayer {
    const std::int32_t* slots = nullptr;
    const std::vector<std::vector<VertexId>>* lists = nullptr;
    bool active() const { return slots != nullptr; }
  };

  GraphView() = default;

  /// Implicit: a plain CSR graph with no overrides.
  GraphView(const Graph& g)  // NOLINT(google-explicit-constructor)
      : row_ptr_(g.row_ptr().data()),
        col_idx_(g.col_idx().data()),
        labels_(g.is_labeled() ? g.labels().data() : nullptr),
        n_(g.num_vertices()) {}

  /// A view over an abstract adjacency source (storage backend).
  explicit GraphView(const AdjacencySource& src)
      : labels_(src.source_labels()),
        n_(src.source_num_vertices()),
        source_(&src) {}

  /// Stacks an override layer on top of `base`. At most two layers deep: an
  /// overlay over a snapshot view is the deepest supported composition.
  GraphView(const GraphView& base, const std::int32_t* slots,
            const std::vector<std::vector<VertexId>>* lists)
      : row_ptr_(base.row_ptr_),
        col_idx_(base.col_idx_),
        labels_(base.labels_),
        n_(base.n_),
        inner_{slots, lists},
        outer_(base.inner_),
        source_(base.source_) {
    STM_CHECK_MSG(!base.outer_.active(),
                  "GraphView supports at most two override layers");
  }

  VertexId num_vertices() const { return n_; }

  /// Sorted neighbor list of v, resolved through the override layers.
  std::span<const VertexId> neighbors(VertexId v) const {
    STM_CHECK(v < n_);
    if (inner_.active()) {
      const std::int32_t s = inner_.slots[v];
      if (s >= 0) {
        const auto& l = (*inner_.lists)[static_cast<std::size_t>(s)];
        return {l.data(), l.size()};
      }
    }
    if (outer_.active()) {
      const std::int32_t s = outer_.slots[v];
      if (s >= 0) {
        const auto& l = (*outer_.lists)[static_cast<std::size_t>(s)];
        return {l.data(), l.size()};
      }
    }
    if (source_ != nullptr) return source_->source_neighbors(v);
    return {col_idx_ + row_ptr_[v],
            static_cast<std::size_t>(row_ptr_[v + 1] - row_ptr_[v])};
  }

  /// Degree of v; on a storage-backed base this avoids materializing the
  /// neighbor list.
  EdgeId degree(VertexId v) const {
    STM_CHECK(v < n_);
    if (overridden(v) || source_ == nullptr) return neighbors(v).size();
    return source_->source_degree(v);
  }

  /// Adjacency test: O(log deg) on raw/override lists; O(1) bitset probe or
  /// anchored seek on storage-backed bases.
  bool has_edge(VertexId u, VertexId v) const {
    STM_CHECK(u < n_);
    if (source_ != nullptr && !overridden(u)) {
      return source_->source_has_edge(u, v);
    }
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }

  bool is_labeled() const { return labels_ != nullptr; }
  Label label(VertexId v) const {
    STM_CHECK(v < n_);
    return labels_ == nullptr ? Label{0} : labels_[v];
  }
  /// Raw label array for LabelFilter (nullptr when unlabeled).
  const Label* labels_data() const { return labels_; }

  /// O(n) scan (used once per engine run for stats).
  EdgeId max_degree() const {
    EdgeId best = 0;
    for (VertexId v = 0; v < n_; ++v) best = std::max(best, degree(v));
    return best;
  }

  /// Directed adjacency entries (2 x undirected edges); O(n) when overridden.
  EdgeId num_adjacency_entries() const {
    if (!inner_.active() && !outer_.active()) {
      if (source_ != nullptr) return source_->source_num_adjacency_entries();
      if (n_ > 0) return row_ptr_[n_];
    }
    EdgeId total = 0;
    for (VertexId v = 0; v < n_; ++v) total += degree(v);
    return total;
  }

 private:
  bool overridden(VertexId v) const {
    return (inner_.active() && inner_.slots[v] >= 0) ||
           (outer_.active() && outer_.slots[v] >= 0);
  }

  const EdgeId* row_ptr_ = nullptr;
  const VertexId* col_idx_ = nullptr;
  const Label* labels_ = nullptr;
  VertexId n_ = 0;
  OverrideLayer inner_;  // consulted first (newest deltas)
  OverrideLayer outer_;
  const AdjacencySource* source_ = nullptr;  // consulted after overrides
};

}  // namespace stm
