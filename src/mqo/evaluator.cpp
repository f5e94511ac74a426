#include "mqo/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "setops/set_ops.hpp"
#include "util/check.hpp"

namespace stm::mqo {
namespace {

/// One trie walk over one graph view. Holds per-depth candidate buffers —
/// children of a node are explored sequentially and deeper recursion only
/// touches deeper buffers (the RecExec idiom), so nothing reallocates
/// underneath an active iteration.
class Walker {
 public:
  Walker(const PatternIndex& index, const simd::Kernels& simd, GraphView g,
         int sign, EvalResult* out)
      : index_(index), simd_(simd), g_(g), sign_(sign), out_(out) {}

  /// Both orientations of data edge (u, v) through the trie root.
  void walk_edge(VertexId u, VertexId v) {
    const TrieNode& root = index_.trie().root();
    const std::pair<VertexId, VertexId> seeds[2] = {{u, v}, {v, u}};
    for (const auto& [s0, s1] : seeds) {
      ++out_->seed_walks;
      for (const auto& first : root.children) {
        if (!label_match(first->step.label, s0)) continue;
        matched_[0] = s0;
        ++out_->node_visits;
        for (const auto& second : first->children) {
          // Depth-2 steps are always mask 0b1 (the anchor edge); only the
          // label can prune here.
          if (!label_match(second->step.label, s1)) continue;
          matched_[1] = s1;
          ++out_->node_visits;
          credit(*second);
          if (!second->children.empty()) descend(*second, 2);
        }
      }
    }
  }

 private:
  bool label_match(std::int16_t label, VertexId v) const {
    // A labeled step on an unlabeled graph matches nothing (the session
    // rejects such registrations at baseline enumeration; this keeps the
    // standalone index well-defined).
    return label < 0 || (g_.is_labeled() && g_.label(v) == label);
  }

  bool injective(std::size_t depth, VertexId v) const {
    for (std::size_t j = 0; j < depth; ++j) {
      if (matched_[j] == v) return false;
    }
    return true;
  }

  /// Credits every anchored plan completing at `node` with the current
  /// partial embedding matched_[0 .. node.depth).
  void credit(const TrieNode& node) {
    for (const TrieTerminal& t : node.terminals) {
      GroupDelta& gd = out_->groups[t.group];
      gd.embeddings += sign_;
      if (!index_.group_collects(t.group)) continue;
      Embedding rep_order(node.depth);
      for (std::size_t i = 0; i < node.depth; ++i) {
        rep_order[t.perm[i]] = matched_[i];
      }
      (sign_ > 0 ? gd.added : gd.retracted).push_back(std::move(rep_order));
    }
  }

  /// Candidates for position `depth`: the intersection of the prefix
  /// neighborhoods selected by `mask`, materialized into cands_[depth].
  /// Label/injectivity are checked per candidate by the caller.
  const std::vector<VertexId>& candidates(std::uint8_t mask,
                                          std::size_t depth) {
    std::array<std::span<const VertexId>, kMaxPatternSize> lists;
    std::size_t count = 0;
    for (std::size_t j = 0; j < depth; ++j) {
      if ((mask >> j) & 1u) lists[count++] = g_.neighbors(matched_[j]);
    }
    STM_CHECK(count >= 1);  // anchored orders are connected
    std::sort(lists.begin(), lists.begin() + static_cast<std::ptrdiff_t>(count),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    auto& out = cands_[depth];
    if (count == 1) {
      out.assign(lists[0].begin(), lists[0].end());
      return out;
    }
    set_intersect_into(lists[0], lists[1], out, &simd_);
    for (std::size_t i = 2; i < count; ++i) {
      set_intersect_into(out, lists[i], scratch_, &simd_);
      out.swap(scratch_);
    }
    return out;
  }

  void descend(const TrieNode& node, std::size_t depth) {
    for (const auto& child : node.children) {
      const std::vector<VertexId>& c = candidates(child->step.adj_mask, depth);
      const bool leaf = child->children.empty();
      const bool collecting = leaf && !child->terminals.empty() &&
                              any_collecting(*child);
      if (leaf && !collecting) {
        // Leaf fast path: terminals only — tally the valid candidates
        // without per-vertex recursion or embedding materialization.
        std::int64_t valid = 0;
        for (const VertexId v : c) {
          if (!label_match(child->step.label, v) || !injective(depth, v)) {
            continue;
          }
          ++valid;
        }
        out_->node_visits += static_cast<std::uint64_t>(valid);
        for (const TrieTerminal& t : child->terminals) {
          out_->groups[t.group].embeddings += sign_ * valid;
        }
        continue;
      }
      for (std::size_t idx = 0; idx < c.size(); ++idx) {
        const VertexId v = c[idx];
        if (!label_match(child->step.label, v) || !injective(depth, v)) {
          continue;
        }
        matched_[depth] = v;
        ++out_->node_visits;
        credit(*child);
        if (!leaf) descend(*child, depth + 1);
      }
    }
  }

  bool any_collecting(const TrieNode& node) const {
    return std::any_of(node.terminals.begin(), node.terminals.end(),
                       [&](const TrieTerminal& t) {
                         return index_.group_collects(t.group);
                       });
  }

  const PatternIndex& index_;
  const simd::Kernels& simd_;
  const GraphView g_;
  const int sign_;
  EvalResult* out_;
  std::array<VertexId, kMaxPatternSize> matched_{};
  std::array<std::vector<VertexId>, kMaxPatternSize + 1> cands_;
  std::vector<VertexId> scratch_;
};

}  // namespace

MultiQueryEvaluator::MultiQueryEvaluator(const PatternIndex& index)
    : index_(index), simd_(simd::kernels()) {}

EvalResult MultiQueryEvaluator::evaluate(
    const std::shared_ptr<const GraphSnapshot>& from,
    const DeltaEdges& applied) const {
  STM_CHECK(from != nullptr);
  EvalResult result;
  result.groups.resize(index_.num_group_slots());
  result.delta_edges = applied.size();
  if (applied.empty() || index_.empty()) return result;

  // The per-pattern inclusion–exclusion, verbatim: each affected embedding
  // of each group is credited exactly once, with the walk's polarity, at
  // the largest-index delta edge it contains.
  for_each_prefix_edge(
      from, applied, [&](GraphView g, VertexId u, VertexId v, int sign) {
        STM_CHECK_MSG(g.has_edge(u, v),
                      "delta edge must be present in the view");
        Walker(index_, simd_, g, sign, &result).walk_edge(u, v);
      });
  return result;
}

}  // namespace stm::mqo
