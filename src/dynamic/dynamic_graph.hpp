// Dynamic graph subsystem: batched updates over an immutable CSR base.
//
// A MutableGraph layers batched edge insertions/deletions over the loaded
// CSR. Mutation never touches the base arrays: every applied batch publishes
// a fresh immutable GraphSnapshot holding per-vertex sorted delta adjacency
// (adds + tombstones) and a pre-merged neighbor list for each dirty vertex.
// In-flight queries keep the shared_ptr of the snapshot they started on and
// therefore read an epoch-consistent version while writers apply the next
// batch — snapshot state is never written after publication, so concurrent
// readers are race-free by construction.
//
// `compact()` rebuilds the CSR from the current version (folding the deltas
// in) without changing the logical graph, so the epoch is kept; `apply()`
// bumps the monotone epoch, which keys plan-cache entries (a matching order
// tuned to stale degrees is never reused after heavy updates).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "storage/store.hpp"

namespace stm {

/// One batch of undirected edge updates. Pairs may be in any order and may
/// contain duplicates; `MutableGraph::apply` normalizes them. An edge listed
/// in both vectors is rejected as kInvalidArgument-class misuse.
struct UpdateBatch {
  std::vector<std::pair<VertexId, VertexId>> insertions;
  std::vector<std::pair<VertexId, VertexId>> deletions;

  bool empty() const { return insertions.empty() && deletions.empty(); }
};

/// What a batch actually changed. Inserting a present edge / deleting an
/// absent one is not an error — redundant updates are a fact of live feeds —
/// but it is reported.
struct UpdateStats {
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
  std::uint64_t ignored_existing = 0;  // insertions of already-present edges
  std::uint64_t ignored_missing = 0;   // deletions of absent edges
};

/// A normalized set of undirected delta edges (u < v, sorted, unique).
struct DeltaEdges {
  std::vector<std::pair<VertexId, VertexId>> inserted;
  std::vector<std::pair<VertexId, VertexId>> deleted;

  bool empty() const { return inserted.empty() && deleted.empty(); }
  std::size_t size() const { return inserted.size() + deleted.size(); }
  bool operator==(const DeltaEdges&) const = default;
};

/// One immutable version of the evolving graph: the CSR base plus merged
/// adjacency for every vertex whose neighborhood differs from it. Create via
/// MutableGraph; all members are written once during construction and only
/// read afterwards.
class GraphSnapshot {
 public:
  /// The engines' adjacency interface over this version. The view borrows
  /// this snapshot's tables: keep the snapshot (shared_ptr) alive while any
  /// engine run uses the view. When a storage backend is attached, clean
  /// vertices read through it (compressed / bitset / spill) and dirty
  /// vertices read their merged lists — engines can't tell the difference.
  GraphView view() const {
    const GraphView base_view =
        store_ != nullptr ? store_->view() : GraphView(*base_);
    return GraphView(base_view, slot_of_.data(), &merged_);
  }

  std::uint64_t epoch() const { return epoch_; }
  VertexId num_vertices() const { return base_->num_vertices(); }
  /// Undirected edge count of this version (base edges + net delta).
  EdgeId num_edges() const { return num_edges_; }

  /// Store-safe point probe: takes its own storage lease, so it is safe to
  /// call without pinning the decode cache first.
  bool has_edge(VertexId u, VertexId v) const;

  /// Normalized delta of this version relative to its CSR base (empty right
  /// after construction or compact()).
  const DeltaEdges& delta_from_base() const { return delta_from_base_; }

  /// The CSR this version layers over.
  const Graph& base() const { return *base_; }

  /// The storage backend serving clean-vertex adjacency (null = raw CSR).
  const std::shared_ptr<const storage::GraphStore>& store() const {
    return store_;
  }

  /// Pins the store's decoded-list cache for the duration of an engine run
  /// over view(); a no-op lease when no store is attached.
  storage::GraphStore::Lease storage_lease() const {
    return store_ != nullptr ? store_->lease() : storage::GraphStore::Lease();
  }

  /// Resident bytes of this version's base representation (store or CSR)
  /// plus the per-vertex delta tables.
  std::uint64_t memory_bytes() const;

  /// Materializes a standalone CSR Graph equal to this version (labels
  /// preserved). This is the reference side of the differential tests.
  Graph compacted() const;

 private:
  friend class MutableGraph;
  GraphSnapshot() = default;

  std::shared_ptr<const Graph> base_;
  std::shared_ptr<const storage::GraphStore> store_;  // null = raw CSR base
  std::uint64_t epoch_ = 0;
  EdgeId num_edges_ = 0;
  /// slot_of_[v] >= 0: v is dirty and merged_[slot] is its full merged
  /// neighbor list; adds_/dels_[slot] are its delta vs the base (sorted).
  std::vector<std::int32_t> slot_of_;
  std::vector<std::vector<VertexId>> merged_;
  std::vector<std::vector<VertexId>> adds_;
  std::vector<std::vector<VertexId>> dels_;
  DeltaEdges delta_from_base_;
};

struct ApplyResult {
  /// The newly published version.
  std::shared_ptr<const GraphSnapshot> snapshot;
  UpdateStats stats;
  /// The effective (deduplicated, redundancy-stripped) delta this batch
  /// applied — exactly what IncrementalMatcher::count_delta consumes.
  DeltaEdges applied;
};

/// The single-writer mutation front end. Readers call snapshot() (cheap:
/// one mutex-guarded shared_ptr copy) and never block behind a writer for
/// the duration of a query.
class MutableGraph {
 public:
  /// `start_epoch` seeds the version counter; crash recovery constructs the
  /// graph at its checkpointed epoch so replayed batches reproduce the exact
  /// epoch sequence of the uninterrupted run. `storage` selects the backend
  /// serving clean-vertex adjacency (default: raw CSR); compact() re-encodes
  /// the folded graph under the same policy.
  explicit MutableGraph(Graph base, std::uint64_t start_epoch = 0,
                        storage::StoragePolicy storage = {});

  /// The current version.
  std::shared_ptr<const GraphSnapshot> snapshot() const;

  /// Current epoch (bumped by every non-empty apply, kept by compact).
  std::uint64_t epoch() const { return snapshot()->epoch(); }

  /// The seed CSR this graph started from (alive for the session lifetime).
  const Graph& base() const { return *seed_; }

  /// Applies one batch atomically: the new snapshot is fully built, then
  /// published; a failure (validation or injected kUpdateApply fault) leaves
  /// the current version untouched. Throws check_error on self-loops,
  /// out-of-range vertices, or edges listed as both inserted and deleted.
  ///
  /// `pre_publish`, when set, runs after the successor snapshot is fully
  /// built (result.snapshot points at it) but before it becomes visible —
  /// the write-ahead point of the durability layer: the hook appends the
  /// normalized batch to the WAL, and if it throws, the batch is dropped and
  /// the published version stays untouched. The hook is not invoked for
  /// no-op batches (empty effective delta: no epoch bump, nothing to log).
  ApplyResult apply(const UpdateBatch& batch,
                    const std::function<void(const ApplyResult&)>&
                        pre_publish = nullptr);

  /// Rebuilds the CSR from the current version. The logical graph and epoch
  /// are unchanged; the returned snapshot has an empty delta. Live readers
  /// of older snapshots are unaffected (they share the old base).
  std::shared_ptr<const GraphSnapshot> compact();

  /// Installs a fault-injection schedule (FaultSite::kUpdateApply fires a
  /// FaultInjectedError after batch validation, before publication).
  void set_fault(const FaultConfig& cfg);

 private:
  std::shared_ptr<const Graph> seed_;
  storage::StoragePolicy storage_policy_;
  mutable std::mutex mu_;
  std::shared_ptr<const GraphSnapshot> current_;
  std::optional<FaultInjector> injector_;
  std::uint64_t apply_seq_ = 0;  // fault-decision key
};

/// A transient, copy-on-write edge overlay on top of a snapshot: the
/// prefix-hybrid graphs of the incremental matcher (G_common plus the first
/// i delta edges). Not thread-safe; cheap to create per delta computation.
/// Vertices are materialized lazily — untouched vertices read the snapshot.
class DeltaOverlay {
 public:
  explicit DeltaOverlay(std::shared_ptr<const GraphSnapshot> snap);

  /// Adds/removes an undirected edge. Adding a present edge or removing an
  /// absent one is a checked precondition violation.
  void add_edge(VertexId u, VertexId v);
  void remove_edge(VertexId u, VertexId v);

  bool has_edge(VertexId u, VertexId v) const { return view().has_edge(u, v); }

  /// Adjacency view over snapshot + overlay. Borrow only between mutations:
  /// add/remove may reallocate the overlay tables.
  GraphView view() const { return GraphView(snap_->view(), slots_.data(), &lists_); }

 private:
  std::vector<VertexId>& touch(VertexId v);

  std::shared_ptr<const GraphSnapshot> snap_;
  /// Untouched vertices read through the snapshot's store on every view();
  /// the overlay pins the decode cache for its whole lifetime.
  storage::GraphStore::Lease lease_;
  std::vector<std::int32_t> slots_;
  std::vector<std::vector<VertexId>> lists_;
};

/// Receives one step of the prefix walk: the overlay view, the delta edge
/// just added to it, and its polarity (+1 inserted side, -1 deleted side).
using PrefixEdgeFn = std::function<void(GraphView, VertexId, VertexId, int)>;

/// The prefix inclusion–exclusion walk behind every delta computation
/// (incremental counts and embeddings, the multi-query evaluator, the
/// sharded cut term). Let G_old = `from`, G_new = G_old + applied and
/// G_common = G_old minus the deleted edges = G_new minus the inserted
/// ones. The walk adds the inserted edges d_1..d_m to G_common one at a
/// time and calls fn(G_common + {d_1..d_i}, d_i, +1), then does the same
/// over the deleted edges r_1..r_j with sign -1. Summing "matches
/// containing d_i" over the inserted side gives
/// count(G_new) - count(G_common): every match of G_new that is not a match
/// of G_common contains at least one inserted edge and is counted exactly
/// once, at the largest-index inserted edge it contains (earlier prefixes
/// miss that edge, later steps only count matches containing *their*
/// newest edge). The deleted side gives count(G_old) - count(G_common), and
/// the difference of the two sums is the exact delta, with no per-embedding
/// filtering. A side with no edges builds no overlay. `applied` need not be normalized, but every inserted edge must
/// be absent from and every deleted edge present in `from`.
void for_each_prefix_edge(const std::shared_ptr<const GraphSnapshot>& from,
                          const DeltaEdges& applied, const PrefixEdgeFn& fn);

}  // namespace stm
