#include "dynamic/dynamic_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stm {

namespace {

using EdgePair = std::pair<VertexId, VertexId>;

/// Validates, canonicalizes (u < v) and dedupes one side of a batch.
std::vector<EdgePair> normalize_edges(
    const std::vector<EdgePair>& edges, VertexId n, const char* what) {
  std::vector<EdgePair> out;
  out.reserve(edges.size());
  for (auto [u, v] : edges) {
    STM_CHECK_MSG(u != v, what << " (" << u << "," << v << ") is a self-loop");
    STM_CHECK_MSG(u < n && v < n, what << " (" << u << "," << v
                                       << ") references a vertex >= " << n);
    if (u > v) std::swap(u, v);
    out.emplace_back(u, v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void sorted_insert(std::vector<VertexId>& list, VertexId v) {
  list.insert(std::lower_bound(list.begin(), list.end(), v), v);
}

void sorted_erase(std::vector<VertexId>& list, VertexId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  STM_CHECK(it != list.end() && *it == v);
  list.erase(it);
}

}  // namespace

std::uint64_t GraphSnapshot::memory_bytes() const {
  std::uint64_t total = store_ != nullptr ? store_->stats().resident_bytes
                                          : base_->memory_bytes();
  total += slot_of_.capacity() * sizeof(std::int32_t);
  for (const auto* tables : {&merged_, &adds_, &dels_})
    for (const auto& list : *tables)
      total += list.capacity() * sizeof(VertexId) + sizeof(list);
  return total;
}

bool GraphSnapshot::has_edge(VertexId u, VertexId v) const {
  const storage::GraphStore::Lease lease = storage_lease();
  return view().has_edge(u, v);
}

Graph GraphSnapshot::compacted() const {
  // The full sweep reads store-backed adjacency; the lease keeps a
  // concurrent trim_decoded() from freeing decoded lists mid-iteration.
  const storage::GraphStore::Lease lease = storage_lease();
  GraphBuilder builder(num_vertices());
  const GraphView g = view();
  for (VertexId u = 0; u < num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) builder.add_edge(u, v);
  Graph out = builder.build();
  if (base_->is_labeled()) out = out.with_labels(base_->labels());
  return out;
}

MutableGraph::MutableGraph(Graph base, std::uint64_t start_epoch,
                           storage::StoragePolicy storage)
    : seed_(std::make_shared<const Graph>(std::move(base))),
      storage_policy_(std::move(storage)) {
  auto snap = std::make_shared<GraphSnapshot>(GraphSnapshot{});
  snap->base_ = seed_;
  if (storage_policy_.backend != storage::Backend::kUncompressed)
    snap->store_ = storage::GraphStore::build(seed_, storage_policy_);
  snap->epoch_ = start_epoch;
  snap->num_edges_ = seed_->num_edges();
  snap->slot_of_.assign(seed_->num_vertices(), -1);
  current_ = std::move(snap);
}

std::shared_ptr<const GraphSnapshot> MutableGraph::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void MutableGraph::set_fault(const FaultConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cfg.enabled())
    injector_.emplace(cfg);
  else
    injector_.reset();
}

ApplyResult MutableGraph::apply(
    const UpdateBatch& batch,
    const std::function<void(const ApplyResult&)>& pre_publish) {
  std::lock_guard<std::mutex> lock(mu_);
  const GraphSnapshot& cur = *current_;
  // Redundancy checks below read store-backed adjacency (has_edge); the
  // lease keeps a trim_decoded() racing in from a query-completion thread
  // from freeing decoded lists under us.
  const storage::GraphStore::Lease storage_lease = cur.storage_lease();
  const VertexId n = cur.num_vertices();

  const auto ins = normalize_edges(batch.insertions, n, "inserted edge");
  const auto del = normalize_edges(batch.deletions, n, "deleted edge");
  {
    std::vector<EdgePair> both;
    std::set_intersection(ins.begin(), ins.end(), del.begin(), del.end(),
                          std::back_inserter(both));
    STM_CHECK_MSG(both.empty(),
                  "edge (" << both.front().first << "," << both.front().second
                           << ") is both inserted and deleted in one batch");
  }

  ApplyResult result;
  // Redundancy is resolved against the *current* version, so the effective
  // delta is exactly the symmetric difference this batch causes.
  const GraphView cur_view = cur.view();
  for (const auto& e : ins) {
    if (cur_view.has_edge(e.first, e.second))
      ++result.stats.ignored_existing;
    else
      result.applied.inserted.push_back(e);
  }
  for (const auto& e : del) {
    if (!cur_view.has_edge(e.first, e.second))
      ++result.stats.ignored_missing;
    else
      result.applied.deleted.push_back(e);
  }
  result.stats.inserted = result.applied.inserted.size();
  result.stats.deleted = result.applied.deleted.size();

  if (result.applied.empty()) {
    result.snapshot = current_;  // no-op batch: same version, same epoch
    return result;
  }

  // Build the successor version off to the side; `current_` is published
  // only after the whole batch (and the fault check) succeeded.
  auto next = std::make_shared<GraphSnapshot>(GraphSnapshot{});
  next->base_ = cur.base_;
  next->store_ = cur.store_;  // base unchanged: successor shares the backend
  next->epoch_ = cur.epoch_ + 1;
  next->num_edges_ = cur.num_edges_ + result.applied.inserted.size() -
                     result.applied.deleted.size();
  next->slot_of_ = cur.slot_of_;
  next->merged_ = cur.merged_;
  next->adds_ = cur.adds_;
  next->dels_ = cur.dels_;

  const Graph& base = *next->base_;
  auto slot = [&](VertexId v) -> std::int32_t {
    std::int32_t s = next->slot_of_[v];
    if (s < 0) {
      s = static_cast<std::int32_t>(next->merged_.size());
      next->slot_of_[v] = s;
      const auto nbrs = base.neighbors(v);
      next->merged_.emplace_back(nbrs.begin(), nbrs.end());
      next->adds_.emplace_back();
      next->dels_.emplace_back();
    }
    return s;
  };
  auto connect = [&](VertexId u, VertexId v) {
    const auto s = static_cast<std::size_t>(slot(u));
    sorted_insert(next->merged_[s], v);
    if (base.has_edge(u, v))
      sorted_erase(next->dels_[s], v);  // re-insert of a tombstoned base edge
    else
      sorted_insert(next->adds_[s], v);
  };
  auto disconnect = [&](VertexId u, VertexId v) {
    const auto s = static_cast<std::size_t>(slot(u));
    sorted_erase(next->merged_[s], v);
    if (base.has_edge(u, v))
      sorted_insert(next->dels_[s], v);
    else
      sorted_erase(next->adds_[s], v);  // deletion of a previously added edge
  };
  for (const auto& [u, v] : result.applied.inserted) {
    connect(u, v);
    connect(v, u);
  }
  for (const auto& [u, v] : result.applied.deleted) {
    disconnect(u, v);
    disconnect(v, u);
  }

  // Delta vs base, recomputed from the per-vertex lists (each undirected
  // edge appears in both endpoints' lists; keep the u < v copy).
  for (VertexId u = 0; u < n; ++u) {
    const std::int32_t s = next->slot_of_[u];
    if (s < 0) continue;
    for (VertexId v : next->adds_[static_cast<std::size_t>(s)])
      if (u < v) next->delta_from_base_.inserted.emplace_back(u, v);
    for (VertexId v : next->dels_[static_cast<std::size_t>(s)])
      if (u < v) next->delta_from_base_.deleted.emplace_back(u, v);
  }

  if (injector_.has_value() &&
      injector_->should_fail(FaultSite::kUpdateApply, apply_seq_++)) {
    // The fully built successor is dropped; the published version is
    // untouched, so a failed apply is invisible to readers.
    throw FaultInjectedError("injected fault: update batch apply failed");
  }
  ++apply_seq_;

  // Write-ahead point: the successor exists but is not yet visible. A hook
  // failure (torn WAL append past its retry budget) propagates and the batch
  // never publishes — memory and durable state cannot diverge.
  result.snapshot = next;
  if (pre_publish) pre_publish(result);

  current_ = std::move(next);
  result.snapshot = current_;
  return result;
}

std::shared_ptr<const GraphSnapshot> MutableGraph::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  const GraphSnapshot& cur = *current_;
  if (cur.delta_from_base_.empty()) return current_;  // already compact
  auto base = std::make_shared<const Graph>(cur.compacted());
  auto next = std::make_shared<GraphSnapshot>(GraphSnapshot{});
  next->base_ = base;
  if (storage_policy_.backend != storage::Backend::kUncompressed)
    next->store_ = storage::GraphStore::build(base, storage_policy_);
  next->epoch_ = cur.epoch_;  // same logical graph, same epoch
  next->num_edges_ = cur.num_edges_;
  next->slot_of_.assign(cur.num_vertices(), -1);
  current_ = std::move(next);
  return current_;
}

DeltaOverlay::DeltaOverlay(std::shared_ptr<const GraphSnapshot> snap)
    : snap_(std::move(snap)),
      lease_(snap_->storage_lease()),
      slots_(snap_->num_vertices(), -1) {}

std::vector<VertexId>& DeltaOverlay::touch(VertexId v) {
  STM_CHECK(v < snap_->num_vertices());
  std::int32_t s = slots_[v];
  if (s < 0) {
    s = static_cast<std::int32_t>(lists_.size());
    // Resolve through the snapshot layer once; afterwards the overlay list
    // fully shadows it (GraphView consults the inner layer first).
    const auto nbrs = snap_->view().neighbors(v);
    lists_.emplace_back(nbrs.begin(), nbrs.end());
    slots_[v] = s;
  }
  return lists_[static_cast<std::size_t>(s)];
}

void DeltaOverlay::add_edge(VertexId u, VertexId v) {
  STM_CHECK(u != v);
  std::vector<VertexId>& nu = touch(u);
  STM_CHECK_MSG(!std::binary_search(nu.begin(), nu.end(), v),
                "overlay add of a present edge " << u << "-" << v);
  sorted_insert(nu, v);
  sorted_insert(touch(v), u);
}

void DeltaOverlay::remove_edge(VertexId u, VertexId v) {
  STM_CHECK(u != v);
  sorted_erase(touch(u), v);
  sorted_erase(touch(v), u);
}

void for_each_prefix_edge(const std::shared_ptr<const GraphSnapshot>& from,
                          const DeltaEdges& applied, const PrefixEdgeFn& fn) {
  STM_CHECK(from != nullptr);
  const auto walk = [&](const std::vector<EdgePair>& side, int sign) {
    if (side.empty()) return;
    DeltaOverlay overlay(from);
    for (const auto& [u, v] : applied.deleted) overlay.remove_edge(u, v);
    for (const auto& [u, v] : side) {
      overlay.add_edge(u, v);
      fn(overlay.view(), u, v, sign);
    }
  };
  walk(applied.inserted, +1);
  walk(applied.deleted, -1);
}

}  // namespace stm
