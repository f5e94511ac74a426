#include "core/recursive.hpp"

#include <algorithm>

#include "setops/multi_set_op.hpp"
#include "util/check.hpp"

namespace stm {

namespace {

class RecExec {
 public:
  RecExec(GraphView g, const MatchingPlan& plan, RecursiveCounters* c,
          const CancelToken* cancel = nullptr)
      : g_(g),
        plan_(plan),
        counters_(c),
        poller_(cancel),
        k_(plan.size()),
        simd_(simd::kernels()) {
    STM_CHECK_MSG(!plan_.pattern().is_labeled() || g_.is_labeled(),
                  "labeled pattern requires a labeled data graph");
    values_.resize(plan_.num_nodes());
  }

  std::uint64_t run_range(VertexId v_begin, VertexId v_end,
                          const EmbeddingVisitor* visit = nullptr) {
    visit_ = visit;
    stopped_ = false;
    return loop_outer(v_begin, std::min(v_end, g_.num_vertices()));
  }

  std::uint64_t run_piece(RecursivePiece piece, const EmbeddingVisitor* visit,
                          WorkDonor* donor) {
    STM_CHECK(piece.level == 0 || piece.level + 1 < k_);
    visit_ = visit;
    stopped_ = false;
    top_ = piece.level;
    if (k_ >= 2) donor_ = donor;  // level k-1 is never split
    if (piece.level == 0)
      return loop_outer(
          static_cast<VertexId>(piece.begin),
          static_cast<VertexId>(
              std::min<std::size_t>(piece.end, g_.num_vertices())));
    std::copy_n(piece.prefix.begin(), piece.level, matched_.begin());
    for (auto& [id, value] : piece.sets)
      values_[static_cast<std::size_t>(id)] = std::move(value);
    return recurse(piece.level, piece.begin, piece.end);
  }

  std::uint64_t run_seed(VertexId v0, VertexId v1,
                         const EmbeddingVisitor* visit = nullptr) {
    STM_CHECK(k_ >= 2);
    visit_ = visit;
    stopped_ = false;
    matched_[0] = v0;
    bump_partials(0);
    materialize_entry(1);
    STM_CHECK_MSG(choice_ok(1, v1) &&
                      std::binary_search(cand(1).begin(), cand(1).end(), v1),
                  "seed (v0,v1) is not a valid level-0/1 prefix");
    matched_[1] = v1;
    bump_partials(1);
    if (k_ == 2) {
      if (visit_ != nullptr) (*visit_)({v0, v1});
      return 1;
    }
    materialize_entry(2);
    return recurse(2);
  }

  std::vector<std::pair<VertexId, VertexId>> seeds() {
    std::vector<std::pair<VertexId, VertexId>> out;
    const auto mask = plan_.exact_mask(0);
    for (VertexId v0 = 0; v0 < g_.num_vertices(); ++v0) {
      if (!label_ok(mask, v0)) continue;
      matched_[0] = v0;
      materialize_entry(1);
      for (VertexId v1 : cand(1))
        if (choice_ok(1, v1)) out.emplace_back(v0, v1);
    }
    return out;
  }

 private:
  bool label_ok(std::uint64_t mask, VertexId v) const {
    return !g_.is_labeled() || ((mask >> g_.label(v)) & 1ULL);
  }

  bool choice_ok(std::size_t l, VertexId v) const {
    for (std::size_t j = 0; j < l; ++j)
      if (matched_[j] == v) return false;
    for (std::uint8_t smaller : plan_.constraints_at(l))
      if (matched_[smaller] >= v) return false;
    return true;
  }

  const std::vector<VertexId>& cand(std::size_t l) const {
    return values_[static_cast<std::size_t>(plan_.candidate_node(l))];
  }

  void bump_partials(std::size_t l) {
    if (counters_ != nullptr) ++counters_->partials[l];
  }

  void add_ops(std::size_t entry, std::uint64_t ops) {
    if (counters_ == nullptr) return;
    counters_->scalar_ops += ops;
    counters_->extension_work[entry] += ops;
  }

  void materialize_entry(std::size_t entry) {
    const auto& nodes = plan_.nodes();
    for (std::int16_t id : plan_.nodes_at_entry(entry)) {
      const SetNode& node = nodes[static_cast<std::size_t>(id)];
      auto nbrs = g_.neighbors(matched_[node.op.vertex]);
      const LabelFilter filter =
          (g_.is_labeled() && node.label_mask != ~0ULL)
              ? LabelFilter{g_.labels_data(), node.label_mask}
              : LabelFilter{};
      auto& out = values_[static_cast<std::size_t>(id)];
      if (node.dep < 0) {
        out.clear();
        for (VertexId v : nbrs)
          if (filter.keep(v)) out.push_back(v);
        add_ops(entry, nbrs.size());
      } else {
        const auto& src = values_[static_cast<std::size_t>(node.dep)];
        // Set operation into a scratch buffer; src != out by plan
        // construction since dep != id. The label filter only inspects
        // surviving elements, so filtering after the set op is bit-identical
        // to a fused merge loop.
        if (node.op.kind == SetOpKind::kIntersect)
          set_intersect_into(src, nbrs, scratch_, &simd_);
        else
          set_difference_into(src, nbrs, scratch_, &simd_);
        if (filter.labels != nullptr)
          scratch_.erase(std::remove_if(scratch_.begin(), scratch_.end(),
                                        [&](VertexId v) {
                                          return !filter.keep(v);
                                        }),
                         scratch_.end());
        out.swap(scratch_);
        add_ops(entry, src.size() + nbrs.size());
      }
      if (counters_ != nullptr) ++counters_->sets_built;
    }
  }

  std::uint64_t run_from_v0(VertexId v0) {
    matched_[0] = v0;
    bump_partials(0);
    if (k_ == 1) return 1;
    materialize_entry(1);
    return recurse(1);
  }

  // Level 0 over outer vertices [begin, end).
  std::uint64_t loop_outer(VertexId begin, VertexId end) {
    std::uint64_t total = 0;
    const auto mask = plan_.exact_mask(0);
    WorkDonor* const donor = donor_;
    end_[0] = end;
    for (VertexId v = begin; v < end && !stopped_; ++v) {
      if (donor != nullptr && donor->wanted()) {
        idx_[0] = v;
        donate(0);
        end = static_cast<VertexId>(end_[0]);
      }
      if (!label_ok(mask, v)) continue;
      idx_[0] = v;
      total += run_from_v0(v);
      end = static_cast<VertexId>(end_[0]);
    }
    return total;
  }

  // Level l over candidate indices [begin, end) (the whole set by default).
  // The index stays local: idx_/end_ publish it (and take back a truncated
  // end) only around a donation and a descent, which is all a donation at
  // this or a deeper level reads, so filtered-out iterations store nothing.
  std::uint64_t recurse(std::size_t l, std::size_t begin = 0,
                        std::size_t end = SIZE_MAX) {
    const auto& c = cand(l);
    if (l == k_ - 1) {
      std::uint64_t found = 0;
      for (VertexId v : c) {
        if (!choice_ok(l, v)) continue;
        ++found;
        if (visit_ != nullptr) {
          matched_[l] = v;
          std::vector<VertexId> mapping(matched_.begin(),
                                        matched_.begin() +
                                            static_cast<std::ptrdiff_t>(k_));
          if (!(*visit_)(mapping)) {
            stopped_ = true;
            break;
          }
        }
      }
      add_ops(l, c.size());
      if (counters_ != nullptr) counters_->partials[l] += found;
      return found;
    }
    std::uint64_t total = 0;
    WorkDonor* const donor = donor_;
    end = std::min(end, c.size());
    end_[l] = end;
    // Index-based iteration: deeper recursion only materializes nodes with
    // mat_level > l, so this level's candidate vector is never reallocated
    // underneath us.
    for (std::size_t idx = begin; idx < end && !stopped_; ++idx) {
      if (poller_.fired()) {
        stopped_ = true;
        break;
      }
      if (donor != nullptr && donor->wanted()) {
        idx_[l] = idx;
        donate(l);
        end = end_[l];
      }
      const VertexId v = c[idx];
      if (!choice_ok(l, v)) continue;
      matched_[l] = v;
      bump_partials(l);
      materialize_entry(l + 1);
      idx_[l] = idx;
      total += recurse(l + 1);
      end = end_[l];
    }
    return total;
  }

  // Slow path of the donation poll, run at level l: publish this
  // executor's remaining-work key and, if the donor picks us, give away the
  // upper half of what is left after the current iteration at the
  // shallowest level of this piece that has anything left.
  void donate(std::size_t l) {
    std::size_t s = top_;
    while (s <= l && end_[s] - idx_[s] <= 1) ++s;
    if (s > l) {
      donor_->offer(0);
      return;
    }
    const std::size_t left = end_[s] - idx_[s] - 1;
    constexpr std::uint64_t kLeftBits = 48;
    const std::uint64_t key =
        (std::uint64_t{kMaxPatternSize - s} << kLeftBits) |
        std::min<std::uint64_t>(left, (std::uint64_t{1} << kLeftBits) - 1);
    if (!donor_->offer(key)) return;
    RecursivePiece piece;
    piece.level = s;
    piece.end = end_[s];
    piece.begin = end_[s] = end_[s] - (left + 1) / 2;
    std::copy_n(matched_.begin(), s, piece.prefix.begin());
    if (s > 0) {
      for (const std::int16_t id : plan_.carried(s))
        piece.sets.emplace_back(id, values_[static_cast<std::size_t>(id)]);
    }
    donor_->give(std::move(piece));
  }

  const GraphView g_;
  const MatchingPlan& plan_;
  RecursiveCounters* counters_;
  CancelPoller poller_;
  std::size_t k_;
  const simd::Kernels& simd_;  // bound once per exec
  std::vector<std::vector<VertexId>> values_;
  std::vector<VertexId> scratch_;
  std::array<VertexId, kMaxPatternSize> matched_{};
  // Current index and (donation-truncatable) end of every active loop, as
  // published by loop_outer/recurse; level 0 counts outer vertices, deeper
  // levels candidate indices.
  std::array<std::size_t, kMaxPatternSize> idx_{};
  std::array<std::size_t, kMaxPatternSize> end_{};
  std::size_t top_ = 0;  // level of the running piece; shallower is prefix
  WorkDonor* donor_ = nullptr;
  const EmbeddingVisitor* visit_ = nullptr;
  bool stopped_ = false;
};

}  // namespace

std::uint64_t recursive_count_range(GraphView g, const MatchingPlan& plan,
                                    VertexId v_begin, VertexId v_end,
                                    RecursiveCounters* counters,
                                    const CancelToken* cancel) {
  RecExec exec(g, plan, counters, cancel);
  return exec.run_range(v_begin, v_end);
}

std::uint64_t recursive_enumerate_range(GraphView g, const MatchingPlan& plan,
                                        VertexId v_begin, VertexId v_end,
                                        const EmbeddingVisitor& visit,
                                        RecursiveCounters* counters,
                                        const CancelToken* cancel) {
  RecExec exec(g, plan, counters, cancel);
  return exec.run_range(v_begin, v_end, &visit);
}

std::uint64_t recursive_run_piece(GraphView g, const MatchingPlan& plan,
                                  RecursivePiece piece,
                                  const EmbeddingVisitor* visit,
                                  RecursiveCounters* counters,
                                  const CancelToken* cancel, WorkDonor* donor) {
  RecExec exec(g, plan, counters, cancel);
  return exec.run_piece(std::move(piece), visit, donor);
}

std::uint64_t recursive_count_seed(GraphView g, const MatchingPlan& plan,
                                   VertexId v0, VertexId v1,
                                   RecursiveCounters* counters) {
  RecExec exec(g, plan, counters);
  return exec.run_seed(v0, v1);
}

std::uint64_t recursive_enumerate_seed(GraphView g, const MatchingPlan& plan,
                                       VertexId v0, VertexId v1,
                                       const EmbeddingVisitor& visit,
                                       RecursiveCounters* counters) {
  RecExec exec(g, plan, counters);
  return exec.run_seed(v0, v1, &visit);
}

std::vector<std::pair<VertexId, VertexId>> enumerate_seeds(
    GraphView g, const MatchingPlan& plan) {
  RecExec exec(g, plan, nullptr);
  return exec.seeds();
}

}  // namespace stm
