// ISA-sweeping conformance suite for the SIMD set-operation kernels
// (setops/simd.hpp).
//
// Proves the bit-exactness contract: every kernel table the build and CPU
// support produces byte-identical outputs and counts to a naive std::set_*
// oracle — and therefore to the scalar table — across every op, every
// length 0–130 (crossing the 4- and 8-lane tail boundaries from both
// sides), pointer alignment offsets, shared values straddling vector-block
// seams, heavy size skew, and values past 2^31 (where a signed vector
// compare would go wrong). The suite runs under ASan/UBSan in CI, which
// also enforces the kSimdOutSlack headroom contract: any kernel store past
// the promised slack is a heap-buffer-overflow.
//
// Unsupported levels are skipped cleanly so the same binary passes on a
// scalar-only build and on an AVX2 machine (the CI matrix runs both).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "setops/set_ops.hpp"
#include "setops/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

std::vector<simd::IsaLevel> available_levels() {
  std::vector<simd::IsaLevel> levels;
  for (std::size_t l = 0; l < simd::kNumIsaLevels; ++l) {
    const auto level = static_cast<simd::IsaLevel>(l);
    if (simd::is_supported(level)) levels.push_back(level);
  }
  return levels;
}

std::vector<VertexId> naive_intersect(const std::vector<VertexId>& a,
                                      const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<VertexId> naive_difference(const std::vector<VertexId>& a,
                                       const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// Copies `v` into a fresh heap buffer at byte offset `offset` elements, so
/// the kernels see every load alignment; returns the buffer (keep alive)
/// and the data pointer via `p`.
std::vector<VertexId> at_offset(const std::vector<VertexId>& v,
                                std::size_t offset, const VertexId** p) {
  std::vector<VertexId> buf(offset, VertexId{0});
  buf.insert(buf.end(), v.begin(), v.end());
  *p = buf.data() + offset;
  return buf;
}

/// Runs every kernel of `k` on (a, b) and checks it against the naive
/// oracle. Output buffers are sized exactly bound + kSimdOutSlack so ASan
/// polices the headroom contract.
void check_all_kernels(const simd::Kernels& k, const std::vector<VertexId>& a,
                       const std::vector<VertexId>& b, std::size_t offset) {
  const auto want_inter = naive_intersect(a, b);
  const auto want_diff = naive_difference(a, b);

  const VertexId* ap = nullptr;
  const VertexId* bp = nullptr;
  const auto abuf = at_offset(a, offset, &ap);
  const auto bbuf = at_offset(b, offset, &bp);

  std::vector<VertexId> out(std::min(a.size(), b.size()) +
                            simd::kSimdOutSlack);
  std::size_t n = k.intersect(ap, a.size(), bp, b.size(), out.data());
  ASSERT_EQ(n, want_inter.size()) << "intersect @" << simd::to_string(k.level);
  EXPECT_TRUE(std::equal(want_inter.begin(), want_inter.end(), out.begin()))
      << "intersect order/content @" << simd::to_string(k.level);

  EXPECT_EQ(k.intersect_count(ap, a.size(), bp, b.size()), want_inter.size())
      << "intersect_count @" << simd::to_string(k.level);

  out.assign(a.size() + simd::kSimdOutSlack, VertexId{0});
  n = k.difference(ap, a.size(), bp, b.size(), out.data());
  ASSERT_EQ(n, want_diff.size()) << "difference @" << simd::to_string(k.level);
  EXPECT_TRUE(std::equal(want_diff.begin(), want_diff.end(), out.begin()))
      << "difference order/content @" << simd::to_string(k.level);

  out.assign(std::min(a.size(), b.size()) + simd::kSimdOutSlack, VertexId{0});
  n = k.gallop_intersect(ap, a.size(), bp, b.size(), out.data());
  ASSERT_EQ(n, want_inter.size())
      << "gallop_intersect @" << simd::to_string(k.level);
  EXPECT_TRUE(std::equal(want_inter.begin(), want_inter.end(), out.begin()))
      << "gallop_intersect order/content @" << simd::to_string(k.level);

  EXPECT_EQ(k.gallop_intersect_count(ap, a.size(), bp, b.size()),
            want_inter.size())
      << "gallop_intersect_count @" << simd::to_string(k.level);

  out.assign(a.size() + simd::kSimdOutSlack, VertexId{0});
  n = k.gallop_difference(ap, a.size(), bp, b.size(), out.data());
  ASSERT_EQ(n, want_diff.size())
      << "gallop_difference @" << simd::to_string(k.level);
  EXPECT_TRUE(std::equal(want_diff.begin(), want_diff.end(), out.begin()))
      << "gallop_difference order/content @" << simd::to_string(k.level);
}

/// Sorted unique set of exactly `size` values drawn from
/// [base, base + universe); universe must be >= size.
std::vector<VertexId> random_set(Rng& rng, std::size_t size,
                                 std::uint64_t universe, std::uint64_t base) {
  std::vector<VertexId> v;
  while (v.size() < size) {
    const std::size_t need = size - v.size();
    for (std::size_t i = 0; i < need + need / 2 + 8; ++i)
      v.push_back(static_cast<VertexId>(base + rng.next_below(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  v.resize(size);
  return v;
}

TEST(SetopsSimdConformance, DispatchReportsScalarAlwaysSupported) {
  EXPECT_TRUE(simd::is_supported(simd::IsaLevel::kScalar));
  EXPECT_GE(available_levels().size(), 1u);
  // The active table must be one of the supported ones.
  EXPECT_TRUE(simd::is_supported(simd::active_isa()));
}

TEST(SetopsSimdConformance, IsaStringsRoundTrip) {
  for (std::size_t l = 0; l < simd::kNumIsaLevels; ++l) {
    const auto level = static_cast<simd::IsaLevel>(l);
    simd::IsaLevel back = simd::IsaLevel::kScalar;
    ASSERT_TRUE(simd::isa_level_from_string(simd::to_string(level), &back));
    EXPECT_EQ(back, level);
  }
  simd::IsaChoice choice = simd::IsaChoice::kAvx2;
  ASSERT_TRUE(simd::isa_choice_from_string("auto", &choice));
  EXPECT_EQ(choice, simd::IsaChoice::kAuto);
  EXPECT_FALSE(simd::isa_choice_from_string("sse999", &choice));
}

TEST(SetopsSimdConformance, ScopedForceRestoresPreviousChoice) {
  ASSERT_EQ(simd::forced_isa(), simd::IsaChoice::kAuto);
  // What the dispatch resolves to unforced — best_supported(), or the
  // STMATCH_FORCE_ISA env level when the CI sweep sets one.
  const simd::IsaLevel ambient = simd::active_isa();
  {
    simd::ScopedForceIsa outer(simd::IsaChoice::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::IsaLevel::kScalar);
    {
      simd::ScopedForceIsa inner(simd::IsaChoice::kAuto);
      EXPECT_EQ(simd::active_isa(), ambient);
    }
    EXPECT_EQ(simd::active_isa(), simd::IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::forced_isa(), simd::IsaChoice::kAuto);
}

TEST(SetopsSimdConformance, ForcingUnsupportedLevelFailsLoud) {
  for (std::size_t l = 0; l < simd::kNumIsaLevels; ++l) {
    const auto level = static_cast<simd::IsaLevel>(l);
    if (simd::is_supported(level)) continue;
    const auto choice =
        static_cast<simd::IsaChoice>(static_cast<std::uint8_t>(level) + 1);
    EXPECT_THROW(simd::force_isa(choice), check_error);
    EXPECT_THROW(simd::kernels_for(level), check_error);
    // A failed force must leave the dispatch unforced.
    EXPECT_EQ(simd::forced_isa(), simd::IsaChoice::kAuto);
  }
}

// Every op x every length pair crossing the 4- and 8-lane tail boundaries x
// alignment offsets, against the naive oracle, under every available level.
// The b-lengths cover each vector width's 0/-1/+1 neighborhoods so partial
// final blocks, exactly-full blocks, and one-past-full blocks all occur on
// both sides of every kernel.
TEST(SetopsSimdConformance, ExhaustiveLengthAndTailSweep) {
  const std::size_t kBLengths[] = {0,  1,  2,  3,  4,   5,   7,  8,
                                   9,  12, 15, 16, 17,  24,  31, 32,
                                   33, 63, 64, 65, 127, 128, 129, 130};
  Rng rng(20260809);
  for (const simd::IsaLevel level : available_levels()) {
    const simd::Kernels& k = simd::kernels_for(level);
    for (std::size_t la = 0; la <= 130; ++la) {
      for (const std::size_t lb : kBLengths) {
        // A small universe forces heavy overlap, so matches land on every
        // lane position over the sweep; the offset cycles all alignments.
        const std::uint64_t universe = la + lb + 1 + rng.next_below(16);
        const auto a = random_set(rng, la, universe + la, 0);
        const auto b = random_set(rng, lb, universe + lb, 0);
        check_all_kernels(k, a, b, (la + lb) % 4);
      }
    }
  }
}

// Shared values placed to straddle every 4- and 8-lane block seam on both
// sides: a is 0..n contiguous, b keeps exactly the values next to each
// multiple of 4 and 8 (so equal elements sit at the last lane of one block
// and the first lane of the next throughout).
TEST(SetopsSimdConformance, DuplicatesAtBlockSeams) {
  for (const simd::IsaLevel level : available_levels()) {
    const simd::Kernels& k = simd::kernels_for(level);
    for (std::size_t n : {8u, 16u, 33u, 64u, 129u}) {
      std::vector<VertexId> a(n);
      for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<VertexId>(i);
      std::vector<VertexId> b;
      for (std::size_t i = 0; i < n; ++i)
        if (i % 4 == 3 || i % 4 == 0 || i % 8 == 7 || i % 8 == 0)
          b.push_back(static_cast<VertexId>(i));
      for (std::size_t offset = 0; offset < 4; ++offset) {
        check_all_kernels(k, a, b, offset);
        check_all_kernels(k, b, a, offset);
      }
    }
  }
}

// Values past 2^31: a signed vector compare (cmpgt without the 0x80000000
// bias) would order these wrong and break the gallop window math.
TEST(SetopsSimdConformance, HighBitValuesOrderCorrectly) {
  Rng rng(424242);
  for (const simd::IsaLevel level : available_levels()) {
    const simd::Kernels& k = simd::kernels_for(level);
    for (int trial = 0; trial < 20; ++trial) {
      // Straddle the sign boundary: half below 2^31, half above, including
      // values near UINT32_MAX.
      auto a = random_set(rng, 40, 60, 0x7FFFFFD0ULL);
      auto b = random_set(rng, 40, 60, 0x7FFFFFD0ULL);
      const auto hi_a = random_set(rng, 10, 40, 0xFFFFFF00ULL);
      const auto hi_b = random_set(rng, 10, 40, 0xFFFFFF00ULL);
      a.insert(a.end(), hi_a.begin(), hi_a.end());
      b.insert(b.end(), hi_b.begin(), hi_b.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      b.erase(std::unique(b.begin(), b.end()), b.end());
      check_all_kernels(k, a, b, trial % 4);
    }
  }
}

// Heavy skew in both directions: the gallop kernels' intended shape, and
// the merge kernels must survive it too.
TEST(SetopsSimdConformance, SkewRatios) {
  Rng rng(77);
  const std::pair<std::size_t, std::size_t> kShapes[] = {
      {1, 1000}, {3, 4096}, {8, 512}, {33, 1056}, {130, 130 * 32}};
  for (const simd::IsaLevel level : available_levels()) {
    const simd::Kernels& k = simd::kernels_for(level);
    for (const auto& [small, large] : kShapes) {
      const auto b = random_set(rng, large, large * 3, 0);
      // Probe set drawn from b's universe so roughly a third of the probes
      // hit; also test the all-hit and no-hit extremes.
      const auto a = random_set(rng, small, large * 3, 0);
      check_all_kernels(k, a, b, 0);
      check_all_kernels(k, b, a, 1);
      std::vector<VertexId> subset(b.begin(),
                                   b.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(small, b.size())));
      check_all_kernels(k, subset, b, 2);
      const auto disjoint = random_set(rng, small, large, large * 3 + 1);
      check_all_kernels(k, disjoint, b, 3);
    }
  }
}

// The public set_ops wrappers (which auto-select merge vs gallop and manage
// the slack internally) must agree with the oracle under every forced level.
TEST(SetopsSimdConformance, WrapperPathsUnderForcedIsa) {
  Rng rng(909090);
  for (const simd::IsaLevel level : available_levels()) {
    const auto choice =
        static_cast<simd::IsaChoice>(static_cast<std::uint8_t>(level) + 1);
    simd::ScopedForceIsa force(choice);
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t la = rng.next_below(200);
      const std::size_t lb =
          trial % 3 == 0 ? rng.next_below(4000) : rng.next_below(200);
      const auto a = random_set(rng, la, la * 2 + lb + 1, 0);
      const auto b = random_set(rng, lb, la + lb * 2 + 1, 0);
      const auto want_inter = naive_intersect(a, b);
      const auto want_diff = naive_difference(a, b);
      std::vector<VertexId> out;
      set_intersect_into(a, b, out);
      EXPECT_EQ(out, want_inter);
      set_difference_into(a, b, out);
      EXPECT_EQ(out, want_diff);
      EXPECT_EQ(set_intersect_count(a, b), want_inter.size());
      EXPECT_EQ(set_difference_count(a, b), want_diff.size());
    }
  }
}

// Regression: difference with b exhausted mid-block. The vectorized
// difference accumulates per-block match bits; when b runs out of full
// blocks the partial a-block's verdicts must carry into the scalar tail —
// recomputing them against the b tail would double-keep matched elements.
TEST(SetopsSimdConformance, DifferenceTailCarriesBlockVerdicts) {
  for (const simd::IsaLevel level : available_levels()) {
    const simd::Kernels& k = simd::kernels_for(level);
    // a: one full block plus tail; b: exactly one block that matches
    // a-lanes 0/2/4/6 then ends. Lanes 1/3/5/7 and the tail must survive.
    const std::vector<VertexId> a{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const std::vector<VertexId> b{0, 2, 4, 6, 8, 100, 101, 102};
    check_all_kernels(k, a, b, 0);
    // b's last block straddles a's block boundary.
    const std::vector<VertexId> a2{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    const std::vector<VertexId> b2{5, 6, 7, 8, 9};
    check_all_kernels(k, a2, b2, 0);
  }
}

// All supported tables agree with each other byte-for-byte (transitively
// implied by oracle agreement above, but asserted directly on raw kernel
// output so a future oracle bug cannot mask a cross-table divergence).
TEST(SetopsSimdConformance, TablesAgreePairwise) {
  Rng rng(31337);
  const auto levels = available_levels();
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = random_set(rng, 1 + rng.next_below(150), 400, 0);
    const auto b = random_set(rng, 1 + rng.next_below(150), 400, 0);
    std::vector<std::vector<VertexId>> outs;
    for (const simd::IsaLevel level : levels) {
      const simd::Kernels& k = simd::kernels_for(level);
      std::vector<VertexId> out(std::min(a.size(), b.size()) +
                                simd::kSimdOutSlack);
      const std::size_t n =
          k.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
      out.resize(n);
      outs.push_back(std::move(out));
    }
    for (std::size_t l = 1; l < outs.size(); ++l)
      EXPECT_EQ(outs[l], outs[0])
          << simd::to_string(levels[l]) << " vs scalar";
  }
}

}  // namespace
}  // namespace stm
