// Sorted-set operations over neighbor lists.
//
// Every candidate set is built from one primitive: a sorted-set
// intersection or difference (paper Fig. 1 line 7/10), fused per warp by
// multi_set_op.hpp (Fig. 8). Inputs must be strictly ascending; outputs are
// strictly ascending.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "setops/simd.hpp"

namespace stm {

/// A view of a sorted vertex set (e.g. a CSR neighbor list).
using SetView = std::span<const VertexId>;

enum class SetOpKind : std::uint8_t {
  kIntersect,   // a ∩ b
  kDifference,  // a \ b
};

/// True iff v ∈ s (binary search).
bool set_contains(SetView s, VertexId v);

// The materializing and counting entry points below are the one place that
// chooses between the galloping and block-merge kernels of a table
// (setops/simd.hpp); every engine builds its candidate sets through them.
// The skew rule, against simd::kGallopSkewRatio (R):
//   - a ∩ b gallops, smaller operand first, when |small| * R <= |large|;
//   - a \ b gallops when |a| * R <= |b|;
//   - otherwise both block-merge in the caller's operand order.
// Every table honours the same output contract, so the result is
// bit-identical whichever kernel runs. `kernels` is the caller's bound
// table; nullptr follows the process-wide dispatch.

/// a ∩ b into `out` (previous contents are discarded).
void set_intersect_into(SetView a, SetView b, std::vector<VertexId>& out,
                        const simd::Kernels* kernels = nullptr);
std::vector<VertexId> set_intersect(SetView a, SetView b);

/// a \ b into `out` (previous contents are discarded).
void set_difference_into(SetView a, SetView b, std::vector<VertexId>& out,
                         const simd::Kernels* kernels = nullptr);
std::vector<VertexId> set_difference(SetView a, SetView b);

/// |a ∩ b| without materializing.
std::size_t set_intersect_count(SetView a, SetView b,
                                const simd::Kernels* kernels = nullptr);
/// |a \ b| without materializing.
std::size_t set_difference_count(SetView a, SetView b);

/// Applies `op` with the given operand order: result = lhs op rhs.
void set_op_into(SetOpKind op, SetView lhs, SetView rhs,
                 std::vector<VertexId>& out);

/// Number of binary-search probe steps for an element lookup in a set of the
/// given size (the simulator's per-lane cost unit): ceil(log2(n)) + 1.
std::uint32_t bsearch_steps(std::size_t set_size);

}  // namespace stm
