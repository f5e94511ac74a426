#include "pattern/motifs.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "pattern/canonical.hpp"
#include "util/check.hpp"

namespace stm {

bool isomorphic(const Pattern& a, const Pattern& b) {
  if (a.size() != b.size() || a.num_edges() != b.num_edges()) return false;
  // Labels do not take part: compare the bare structures.
  return canonical_form(Pattern(a.size(), a.edges())) ==
         canonical_form(Pattern(b.size(), b.edges()));
}

std::vector<Pattern> connected_motifs(std::size_t size) {
  STM_CHECK_MSG(size >= 2 && size <= 6,
                "connected_motifs supports sizes 2..6 (got " << size << ")");
  const std::size_t num_pairs = size * (size - 1) / 2;
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t j = i + 1; j < size; ++j)
      pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));

  // One representative per class (the first edge mask that reaches it),
  // keyed and therefore iterated by canonical string.
  std::map<std::string, Pattern> by_canon;
  for (std::uint64_t mask = 0; mask < (1ULL << num_pairs); ++mask) {
    if (__builtin_popcountll(mask) + 1 <
        static_cast<int>(size))  // too few edges to connect
      continue;
    std::vector<std::pair<int, int>> edges;
    for (std::size_t b = 0; b < num_pairs; ++b)
      if ((mask >> b) & 1ULL) edges.push_back(pairs[b]);
    Pattern p(size, edges);
    if (!p.is_connected()) continue;
    by_canon.try_emplace(canonical_form(p), p);
  }
  std::vector<Pattern> out;
  out.reserve(by_canon.size());
  for (auto& [canon, p] : by_canon) out.push_back(std::move(p));
  std::stable_sort(out.begin(), out.end(),
                   [](const Pattern& a, const Pattern& b) {
                     return a.num_edges() < b.num_edges();
                   });
  return out;
}

}  // namespace stm
