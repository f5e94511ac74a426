#include "setops/set_ops.hpp"

#include <algorithm>

namespace stm {

bool set_contains(SetView s, VertexId v) {
  return std::binary_search(s.begin(), s.end(), v);
}

namespace {

inline const simd::Kernels& table_or_active(const simd::Kernels* kernels) {
  return kernels != nullptr ? *kernels : simd::kernels();
}

/// The skew rule of set_ops.hpp: probing each element of the smaller
/// operand into the larger beats a block merge once the larger one is
/// kGallopSkewRatio times bigger.
inline bool gallop_pays(std::size_t smaller, std::size_t larger) {
  return smaller * simd::kGallopSkewRatio <= larger;
}

}  // namespace

void set_intersect_into(SetView a, SetView b, std::vector<VertexId>& out,
                        const simd::Kernels* kernels) {
  const simd::Kernels& k = table_or_active(kernels);
  // Galloping probes the larger set with elements of the smaller one; the
  // intersection is symmetric so sorted output is preserved either way.
  SetView small = a, large = b;
  if (small.size() > large.size()) std::swap(small, large);
  out.resize(small.size() + simd::kSimdOutSlack);
  const std::size_t n =
      gallop_pays(small.size(), large.size())
          ? k.gallop_intersect(small.data(), small.size(), large.data(),
                               large.size(), out.data())
          : k.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
  out.resize(n);
}

std::vector<VertexId> set_intersect(SetView a, SetView b) {
  std::vector<VertexId> out;
  set_intersect_into(a, b, out);
  return out;
}

void set_difference_into(SetView a, SetView b, std::vector<VertexId>& out,
                         const simd::Kernels* kernels) {
  const simd::Kernels& k = table_or_active(kernels);
  // a \ b never shrinks below probing each element of a, so the only skew
  // worth galloping on is |b| >> |a| (a small candidate set minus a huge
  // neighbor list).
  out.resize(a.size() + simd::kSimdOutSlack);
  const std::size_t n =
      gallop_pays(a.size(), b.size())
          ? k.gallop_difference(a.data(), a.size(), b.data(), b.size(),
                                out.data())
          : k.difference(a.data(), a.size(), b.data(), b.size(), out.data());
  out.resize(n);
}

std::vector<VertexId> set_difference(SetView a, SetView b) {
  std::vector<VertexId> out;
  set_difference_into(a, b, out);
  return out;
}

std::size_t set_intersect_count(SetView a, SetView b,
                                const simd::Kernels* kernels) {
  const simd::Kernels& k = table_or_active(kernels);
  SetView small = a, large = b;
  if (small.size() > large.size()) std::swap(small, large);
  return gallop_pays(small.size(), large.size())
             ? k.gallop_intersect_count(small.data(), small.size(),
                                        large.data(), large.size())
             : k.intersect_count(a.data(), a.size(), b.data(), b.size());
}

std::size_t set_difference_count(SetView a, SetView b) {
  return a.size() - set_intersect_count(a, b);
}

void set_op_into(SetOpKind op, SetView lhs, SetView rhs,
                 std::vector<VertexId>& out) {
  if (op == SetOpKind::kIntersect)
    set_intersect_into(lhs, rhs, out);
  else
    set_difference_into(lhs, rhs, out);
}

std::uint32_t bsearch_steps(std::size_t set_size) {
  // ceil(log2(n)) + 1 probe steps; degenerate sets still cost one step.
  std::uint32_t ceil_log2 = 0;
  std::size_t pow2 = 1;
  while (pow2 < set_size) {
    pow2 <<= 1;
    ++ceil_log2;
  }
  return ceil_log2 + 1;
}

}  // namespace stm
