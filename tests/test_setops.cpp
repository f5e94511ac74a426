// Unit and property tests for src/setops.
#include <gtest/gtest.h>

#include <algorithm>

#include "setops/multi_set_op.hpp"
#include "setops/set_ops.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

std::vector<VertexId> random_sorted_set(Rng& rng, std::size_t max_size,
                                        VertexId universe) {
  std::vector<VertexId> v;
  const auto size = rng.next_below(max_size + 1);
  for (std::size_t i = 0; i < size; ++i)
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Sorted set of exactly `n` distinct values drawn from [0, universe).
std::vector<VertexId> sorted_set_of_size(Rng& rng, std::size_t n,
                                         VertexId universe) {
  std::vector<VertexId> v;
  while (v.size() < n) {
    while (v.size() < n)
      v.push_back(static_cast<VertexId>(rng.next_below(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return v;
}

std::vector<VertexId> std_intersect(SetView a, SetView b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<VertexId> std_difference(SetView a, SetView b) {
  std::vector<VertexId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TEST(SetOps, ContainsBasic) {
  std::vector<VertexId> s{1, 3, 5, 9};
  EXPECT_TRUE(set_contains(s, 1));
  EXPECT_TRUE(set_contains(s, 9));
  EXPECT_FALSE(set_contains(s, 2));
  EXPECT_FALSE(set_contains({}, 0));
}

TEST(SetOps, IntersectBasic) {
  std::vector<VertexId> a{1, 2, 3, 7}, b{2, 3, 4, 7, 9};
  EXPECT_EQ(set_intersect(a, b), (std::vector<VertexId>{2, 3, 7}));
  EXPECT_EQ(set_intersect(a, {}), std::vector<VertexId>{});
  EXPECT_EQ(set_intersect({}, b), std::vector<VertexId>{});
}

TEST(SetOps, DifferenceBasic) {
  std::vector<VertexId> a{1, 2, 3, 7}, b{2, 7};
  EXPECT_EQ(set_difference(a, b), (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(set_difference(a, {}), a);
  EXPECT_EQ(set_difference({}, b), std::vector<VertexId>{});
}

TEST(SetOps, CountsMatchMaterialized) {
  Rng rng(100);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_sorted_set(rng, 64, 128);
    auto b = random_sorted_set(rng, 64, 128);
    EXPECT_EQ(set_intersect_count(a, b), set_intersect(a, b).size());
    EXPECT_EQ(set_difference_count(a, b), set_difference(a, b).size());
  }
}

TEST(SetOps, IntersectMatchesStdOnRandomInputs) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = random_sorted_set(rng, 100, 300);
    auto b = random_sorted_set(rng, 100, 300);
    EXPECT_EQ(set_intersect(a, b), std_intersect(a, b));
  }
}

// The two intersection kernels of the dispatched table, driven directly
// rather than through the skew rule, so each is checked on balanced and
// skewed operands alike. Numbered as the former IntersectAlgo enum was,
// which keeps the case names of this suite unchanged.
enum class IntersectKernel : std::uint8_t { kMerge = 0, kGalloping = 2 };

class IntersectAlgoTest : public ::testing::TestWithParam<IntersectKernel> {
 protected:
  /// a ∩ b and |a ∩ b| from the kernel under test; the galloping kernel is
  /// handed the smaller operand first, as its contract requires.
  static std::vector<VertexId> intersect(SetView a, SetView b) {
    const simd::Kernels& k = simd::kernels();
    std::vector<VertexId> out(std::min(a.size(), b.size()) +
                              simd::kSimdOutSlack);
    std::size_t n = 0, count = 0;
    if (GetParam() == IntersectKernel::kMerge) {
      n = k.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
      count = k.intersect_count(a.data(), a.size(), b.data(), b.size());
    } else {
      if (a.size() > b.size()) std::swap(a, b);
      n = k.gallop_intersect(a.data(), a.size(), b.data(), b.size(),
                             out.data());
      count = k.gallop_intersect_count(a.data(), a.size(), b.data(), b.size());
    }
    out.resize(n);
    EXPECT_EQ(count, n);
    return out;
  }
};

TEST_P(IntersectAlgoTest, MatchesStdOnRandomInputs) {
  Rng rng(42 + static_cast<int>(GetParam()));
  for (int trial = 0; trial < 300; ++trial) {
    auto a = random_sorted_set(rng, 100, 300);
    auto b = random_sorted_set(rng, 100, 300);
    EXPECT_EQ(intersect(a, b), std_intersect(a, b));
  }
}

TEST_P(IntersectAlgoTest, SkewedSizes) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = random_sorted_set(rng, 4, 1000);
    auto b = random_sorted_set(rng, 500, 1000);
    EXPECT_EQ(intersect(a, b), std_intersect(a, b));
    EXPECT_EQ(intersect(b, a), std_intersect(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, IntersectAlgoTest,
                         ::testing::Values(IntersectKernel::kMerge,
                                           IntersectKernel::kGalloping),
                         [](const auto& info) {
                           return info.param == IntersectKernel::kMerge
                                      ? "Merge"
                                      : "Galloping";
                         });

TEST(SetOps, SkewedSizes) {
  Rng rng(7);
  const auto check_both_orders = [](const std::vector<VertexId>& a,
                                    const std::vector<VertexId>& b) {
    EXPECT_EQ(set_intersect(a, b), std_intersect(a, b));
    EXPECT_EQ(set_intersect(b, a), std_intersect(b, a));
    EXPECT_EQ(set_intersect_count(a, b), std_intersect(a, b).size());
    EXPECT_EQ(set_intersect_count(b, a), std_intersect(b, a).size());
    EXPECT_EQ(set_difference(a, b), std_difference(a, b));
    EXPECT_EQ(set_difference(b, a), std_difference(b, a));
  };
  for (int trial = 0; trial < 50; ++trial)
    check_both_orders(random_sorted_set(rng, 4, 1000),
                      random_sorted_set(rng, 500, 1000));
  // Sizes at and one either side of the gallop threshold.
  const std::size_t r = simd::kGallopSkewRatio;
  for (const std::size_t small : {1, 3, 7})
    for (const std::size_t large : {r * small - 1, r * small, r * small + 1})
      check_both_orders(
          sorted_set_of_size(rng, small, static_cast<VertexId>(4 * large)),
          sorted_set_of_size(rng, large, static_cast<VertexId>(4 * large)));
}

// Marker kernels for pinning the skew rule itself: merges report 0 and
// gallops report the size of the operand they were handed first, so a
// wrapper's result says which kernel it chose and in what operand order.
std::size_t merge_marker(const VertexId*, std::size_t, const VertexId*,
                         std::size_t, VertexId*) {
  return 0;
}
std::size_t merge_count_marker(const VertexId*, std::size_t, const VertexId*,
                               std::size_t) {
  return 0;
}
std::size_t gallop_marker(const VertexId*, std::size_t an, const VertexId*,
                          std::size_t, VertexId*) {
  return an;
}
std::size_t gallop_count_marker(const VertexId*, std::size_t an,
                                const VertexId*, std::size_t) {
  return an;
}
constexpr simd::Kernels kMarkerKernels = {
    simd::IsaLevel::kScalar, merge_marker,  merge_count_marker,
    merge_marker,            gallop_marker, gallop_count_marker,
    gallop_marker,
};

// Intersection gallops, smaller operand first, exactly when
// |small| * kGallopSkewRatio <= |large|; a \ b gallops exactly when
// |a| * kGallopSkewRatio <= |b|.
TEST(SetOps, SkewRulePicksKernel) {
  const simd::Kernels* k = &kMarkerKernels;
  const std::size_t r = simd::kGallopSkewRatio;
  const std::vector<VertexId> small(4);
  for (const std::size_t large_size : {4 * r - 1, 4 * r, 4 * r + 1}) {
    const std::vector<VertexId> large(large_size);
    const std::size_t gallop = 4 * r <= large_size ? small.size() : 0;
    std::vector<VertexId> out;
    set_intersect_into(small, large, out, k);
    EXPECT_EQ(out.size(), gallop) << large_size;
    set_intersect_into(large, small, out, k);
    EXPECT_EQ(out.size(), gallop) << large_size;
    EXPECT_EQ(set_intersect_count(small, large, k), gallop) << large_size;
    EXPECT_EQ(set_intersect_count(large, small, k), gallop) << large_size;
    set_difference_into(small, large, out, k);
    EXPECT_EQ(out.size(), gallop) << large_size;
    set_difference_into(large, small, out, k);
    EXPECT_EQ(out.size(), 0u) << large_size;
  }
}

TEST(SetOps, DifferenceMatchesStdOnRandomInputs) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = random_sorted_set(rng, 100, 300);
    auto b = random_sorted_set(rng, 100, 300);
    EXPECT_EQ(set_difference(a, b), std_difference(a, b));
  }
}

TEST(SetOps, SetOpIntoDispatch) {
  std::vector<VertexId> a{1, 2, 3}, b{2}, out;
  set_op_into(SetOpKind::kIntersect, a, b, out);
  EXPECT_EQ(out, std::vector<VertexId>{2});
  set_op_into(SetOpKind::kDifference, a, b, out);
  EXPECT_EQ(out, (std::vector<VertexId>{1, 3}));
}

TEST(SetOps, BsearchSteps) {
  EXPECT_EQ(bsearch_steps(0), 1u);
  EXPECT_EQ(bsearch_steps(1), 1u);
  EXPECT_EQ(bsearch_steps(2), 2u);
  EXPECT_EQ(bsearch_steps(32), 6u);
  EXPECT_EQ(bsearch_steps(33), 7u);
}

TEST(MultiSetOp, SingleTaskMatchesScalar) {
  std::vector<VertexId> a{1, 4, 6, 8}, b{4, 8, 9}, out;
  SetOpTask task{a, b, SetOpKind::kIntersect, {}, &out};
  WarpOpCost cost;
  combined_set_op({&task, 1}, &cost);
  EXPECT_EQ(out, set_intersect(a, b));
  EXPECT_EQ(cost.waves, 1u);
  EXPECT_EQ(cost.busy_lane_slots, 4u);
}

/// Per-lane emulation of the Fig. 8 warp cost: lanes take the concatenated
/// source elements kWarpWidth per wave, and each wave costs the deepest
/// bsearch_steps among the targets its lanes probe.
WarpOpCost lane_by_lane_cost(const std::vector<SetOpTask>& tasks) {
  std::vector<std::size_t> lane_task;
  for (std::size_t t = 0; t < tasks.size(); ++t)
    lane_task.insert(lane_task.end(), tasks[t].source.size(), t);
  WarpOpCost cost;
  for (std::size_t start = 0; start < lane_task.size(); start += kWarpWidth) {
    const std::size_t end = std::min(start + kWarpWidth, lane_task.size());
    std::uint32_t steps = 0;
    for (std::size_t lane = start; lane < end; ++lane)
      steps = std::max(steps,
                       bsearch_steps(tasks[lane_task[lane]].target.size()));
    ++cost.waves;
    cost.busy_lane_slots += end - start;
    cost.probe_cycles += steps;
  }
  for (const SetOpTask& task : tasks) cost.elements_written += task.out->size();
  return cost;
}

TEST(MultiSetOp, ManyTasksMatchScalarLoop) {
  Rng rng(31);
  // 50 balanced trials, then 20 skewed ones past kGallopSkewRatio in both
  // directions (|target| >= 32 |source| and the reverse), which send the
  // set ops to the galloping kernels.
  const std::size_t r = simd::kGallopSkewRatio;
  for (int trial = 0; trial < 70; ++trial) {
    const std::size_t m = 1 + rng.next_below(8);
    std::vector<std::vector<VertexId>> sources(m), targets(m), outs(m);
    std::vector<SetOpTask> tasks(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (trial < 50) {
        sources[i] = random_sorted_set(rng, 40, 100);
        targets[i] = random_sorted_set(rng, 40, 100);
      } else {
        const std::size_t small = 1 + rng.next_below(4);
        const std::size_t large = r * small + rng.next_below(r);
        const auto universe = static_cast<VertexId>(4 * large);
        const bool big_target = trial % 2 == 0;
        sources[i] =
            sorted_set_of_size(rng, big_target ? small : large, universe);
        targets[i] =
            sorted_set_of_size(rng, big_target ? large : small, universe);
      }
      tasks[i] = {sources[i], targets[i],
                  (i % 2 == 0) ? SetOpKind::kIntersect : SetOpKind::kDifference,
                  {},
                  &outs[i]};
    }
    WarpOpCost cost;
    combined_set_op(tasks, &cost);
    for (std::size_t i = 0; i < m; ++i) {
      if (i % 2 == 0)
        EXPECT_EQ(outs[i], std_intersect(sources[i], targets[i]));
      else
        EXPECT_EQ(outs[i], std_difference(sources[i], targets[i]));
    }
    const WarpOpCost want = lane_by_lane_cost(tasks);
    EXPECT_EQ(cost.waves, want.waves);
    EXPECT_EQ(cost.busy_lane_slots, want.busy_lane_slots);
    EXPECT_EQ(cost.probe_cycles, want.probe_cycles);
    EXPECT_EQ(cost.elements_written, want.elements_written);
  }
}

TEST(MultiSetOp, UtilizationImprovesWithFusion) {
  // Eight sets of 8 elements each: one-at-a-time needs 8 waves at 25%
  // utilization; fused they need 2 full waves (the paper's Fig. 8 argument).
  std::vector<std::vector<VertexId>> sources(8), outs(8);
  std::vector<VertexId> target{1, 5, 7};
  std::vector<SetOpTask> tasks;
  for (std::size_t i = 0; i < 8; ++i) {
    for (VertexId v = 0; v < 8; ++v) sources[i].push_back(v * 2);
    tasks.push_back({sources[i], target, SetOpKind::kIntersect, {}, &outs[i]});
  }
  WarpOpCost fused;
  combined_set_op(tasks, &fused);
  EXPECT_EQ(fused.waves, 2u);
  EXPECT_DOUBLE_EQ(fused.utilization(), 1.0);

  WarpOpCost sequential;
  for (auto& task : tasks) combined_set_op({&task, 1}, &sequential);
  EXPECT_EQ(sequential.waves, 8u);
  EXPECT_DOUBLE_EQ(sequential.utilization(), 0.25);
}

TEST(MultiSetOp, LabelFilterKeepsOnlyMaskedLabels) {
  std::vector<Label> labels{0, 1, 2, 0, 1, 2};
  std::vector<VertexId> source{0, 1, 2, 3, 4, 5}, target{0, 1, 2, 3, 4, 5};
  std::vector<VertexId> out;
  LabelFilter filter{labels.data(), (1ULL << 1) | (1ULL << 2)};
  SetOpTask task{source, target, SetOpKind::kIntersect, filter, &out};
  combined_set_op({&task, 1}, nullptr);
  EXPECT_EQ(out, (std::vector<VertexId>{1, 2, 4, 5}));
}

TEST(MultiSetOp, EmptySourcesProduceNoWaves) {
  std::vector<VertexId> empty, target{1}, out{99};
  SetOpTask task{empty, target, SetOpKind::kIntersect, {}, &out};
  WarpOpCost cost;
  combined_set_op({&task, 1}, &cost);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cost.waves, 0u);
  EXPECT_DOUBLE_EQ(cost.utilization(), 1.0);
}

TEST(MultiSetOp, FilteredCopy) {
  std::vector<Label> labels{0, 1, 0, 1};
  std::vector<VertexId> source{0, 1, 2, 3}, out;
  WarpOpCost cost;
  filtered_copy(source, {labels.data(), 1ULL << 1}, out, &cost);
  EXPECT_EQ(out, (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(cost.waves, 1u);
  EXPECT_EQ(cost.elements_written, 2u);
}

TEST(MultiSetOp, CostAccumulates) {
  std::vector<VertexId> a{1, 2, 3}, b{2}, out;
  SetOpTask task{a, b, SetOpKind::kIntersect, {}, &out};
  WarpOpCost cost;
  combined_set_op({&task, 1}, &cost);
  const auto waves_once = cost.waves;
  combined_set_op({&task, 1}, &cost);
  EXPECT_EQ(cost.waves, 2 * waves_once);
}

TEST(MultiSetOp, OrderPreservedPerOutput) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    auto source = random_sorted_set(rng, 200, 400);
    auto target = random_sorted_set(rng, 200, 400);
    std::vector<VertexId> out;
    SetOpTask task{source, target, SetOpKind::kDifference, {}, &out};
    combined_set_op({&task, 1}, nullptr);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

}  // namespace
}  // namespace stm
