// Micro-benchmarks of the set-operation kernels (google-benchmark).
//
// These are real wall-clock measurements of the host kernels, not simulated
// cycles: they justify the cost-model constants (merge vs binary search vs
// galloping, fused multi-set ops).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "setops/multi_set_op.hpp"
#include "setops/set_ops.hpp"
#include "setops/simd.hpp"
#include "util/rng.hpp"

namespace {

using namespace stm;

std::vector<VertexId> sorted_set(Rng& rng, std::size_t size,
                                 VertexId universe) {
  std::vector<VertexId> v;
  v.reserve(size * 2);
  while (v.size() < size)
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_IntersectMerge(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, n, static_cast<VertexId>(n * 8));
  auto b = sorted_set(rng, n, static_cast<VertexId>(n * 8));
  const simd::Kernels& k = simd::kernels();
  std::vector<VertexId> out(std::min(a.size(), b.size()) + simd::kSimdOutSlack);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.intersect(a.data(), a.size(), b.data(), b.size(), out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_IntersectMerge)->Range(16, 4096);

void BM_IntersectBinary(benchmark::State& state) {
  Rng rng(2);
  auto a = sorted_set(rng, 32, 10000);
  auto b = sorted_set(rng, static_cast<std::size_t>(state.range(0)), 100000);
  std::vector<VertexId> out;
  for (auto _ : state) {
    // Per-element binary-search probe: the lane strategy whose step count
    // bsearch_steps() charges in the SIMT cost model.
    out.clear();
    for (const VertexId v : a)
      if (std::binary_search(b.begin(), b.end(), v)) out.push_back(v);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectBinary)->Range(64, 16384);

void BM_IntersectGalloping(benchmark::State& state) {
  Rng rng(3);
  auto a = sorted_set(rng, 32, 10000);
  auto b = sorted_set(rng, static_cast<std::size_t>(state.range(0)), 100000);
  const simd::Kernels& k = simd::kernels();
  std::vector<VertexId> out(a.size() + simd::kSimdOutSlack);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.gallop_intersect(a.data(), a.size(), b.data(),
                                                b.size(), out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IntersectGalloping)->Range(64, 16384);

void BM_Difference(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, n, static_cast<VertexId>(n * 4));
  auto b = sorted_set(rng, n, static_cast<VertexId>(n * 4));
  std::vector<VertexId> out;
  for (auto _ : state) {
    set_difference_into(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Difference)->Range(16, 4096);

void BM_CombinedMultiSetOp(benchmark::State& state) {
  // M fused small ops vs M sequential ops: the unrolling payoff (Fig. 8).
  Rng rng(5);
  const auto fuse = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<VertexId>> sources(fuse), targets(fuse), outs(fuse);
  std::vector<SetOpTask> tasks(fuse);
  for (std::size_t i = 0; i < fuse; ++i) {
    sources[i] = sorted_set(rng, 12, 400);
    targets[i] = sorted_set(rng, 12, 400);
    tasks[i] = {sources[i], targets[i], SetOpKind::kIntersect, {}, &outs[i]};
  }
  WarpOpCost cost;
  for (auto _ : state) {
    combined_set_op(tasks, &cost);
    benchmark::DoNotOptimize(outs.data());
  }
  state.counters["lane_util"] = cost.utilization();
}
BENCHMARK(BM_CombinedMultiSetOp)->RangeMultiplier(2)->Range(1, 16);

// ---------------------------------------------------------------------------
// Per-ISA kernel grids (EXPERIMENTS.md "SIMD set operations"). Each benchmark
// takes (size, isa) from ArgsProduct and drives the raw kernel table of that
// level, so the numbers are pure kernel throughput — no wrapper resize or
// algorithm-selection overhead. Unsupported levels self-skip so the same
// binary runs on any host.
// ---------------------------------------------------------------------------

const char* IsaArgName(std::int64_t isa) {
  return simd::to_string(static_cast<simd::IsaLevel>(isa));
}

/// Fetches the kernel table for the benchmark's ISA argument, or skips the
/// benchmark when this build/CPU cannot execute it.
const simd::Kernels* KernelsOrSkip(benchmark::State& state) {
  const auto level = static_cast<simd::IsaLevel>(state.range(1));
  if (!simd::is_supported(level)) {
    state.SkipWithError("isa level not supported on this host");
    return nullptr;
  }
  return &simd::kernels_for(level);
}

void SetIsaLabel(benchmark::State& state) {
  state.SetLabel(IsaArgName(state.range(1)));
}

void BM_SimdIntersect(benchmark::State& state) {
  const simd::Kernels* k = KernelsOrSkip(state);
  if (!k) return;
  Rng rng(21);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, n, static_cast<VertexId>(n * 8));
  auto b = sorted_set(rng, n, static_cast<VertexId>(n * 8));
  std::vector<VertexId> out(std::min(a.size(), b.size()) +
                            simd::kSimdOutSlack);
  for (auto _ : state) {
    const std::size_t got =
        k->intersect(a.data(), a.size(), b.data(), b.size(), out.data());
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(out.data());
  }
  SetIsaLabel(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_SimdIntersect)
    ->ArgsProduct({{16, 64, 256, 1024, 4096}, {0, 1, 2}});

void BM_SimdIntersectCount(benchmark::State& state) {
  const simd::Kernels* k = KernelsOrSkip(state);
  if (!k) return;
  Rng rng(22);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, n, static_cast<VertexId>(n * 8));
  auto b = sorted_set(rng, n, static_cast<VertexId>(n * 8));
  for (auto _ : state) {
    const std::size_t got =
        k->intersect_count(a.data(), a.size(), b.data(), b.size());
    benchmark::DoNotOptimize(got);
  }
  SetIsaLabel(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_SimdIntersectCount)
    ->ArgsProduct({{16, 64, 256, 1024, 4096}, {0, 1, 2}});

void BM_SimdDifference(benchmark::State& state) {
  const simd::Kernels* k = KernelsOrSkip(state);
  if (!k) return;
  Rng rng(23);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, n, static_cast<VertexId>(n * 4));
  auto b = sorted_set(rng, n, static_cast<VertexId>(n * 4));
  std::vector<VertexId> out(a.size() + simd::kSimdOutSlack);
  for (auto _ : state) {
    const std::size_t got =
        k->difference(a.data(), a.size(), b.data(), b.size(), out.data());
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(out.data());
  }
  SetIsaLabel(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_SimdDifference)
    ->ArgsProduct({{16, 64, 256, 1024, 4096}, {0, 1, 2}});

void BM_SimdGallopIntersect(benchmark::State& state) {
  // Skew grid: |a| = 32 probes into |b| = 32 * ratio. Justifies
  // kGallopSkewRatio: below ~16x the block merge still wins, past ~32x
  // galloping takes over regardless of ISA.
  const simd::Kernels* k = KernelsOrSkip(state);
  if (!k) return;
  Rng rng(24);
  const auto ratio = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, 32, static_cast<VertexId>(32 * ratio * 4));
  auto b =
      sorted_set(rng, 32 * ratio, static_cast<VertexId>(32 * ratio * 4));
  std::vector<VertexId> out(std::min(a.size(), b.size()) +
                            simd::kSimdOutSlack);
  for (auto _ : state) {
    const std::size_t got = k->gallop_intersect(a.data(), a.size(), b.data(),
                                                b.size(), out.data());
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(out.data());
  }
  SetIsaLabel(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_SimdGallopIntersect)
    ->ArgsProduct({{4, 16, 64, 256}, {0, 1, 2}});

void BM_SimdMergeUnderSkew(benchmark::State& state) {
  // Same skewed inputs through the block-merge kernel: the crossover against
  // BM_SimdGallopIntersect is what kGallopSkewRatio = 32 encodes.
  const simd::Kernels* k = KernelsOrSkip(state);
  if (!k) return;
  Rng rng(24);  // same seed as the gallop grid: identical inputs
  const auto ratio = static_cast<std::size_t>(state.range(0));
  auto a = sorted_set(rng, 32, static_cast<VertexId>(32 * ratio * 4));
  auto b =
      sorted_set(rng, 32 * ratio, static_cast<VertexId>(32 * ratio * 4));
  std::vector<VertexId> out(std::min(a.size(), b.size()) +
                            simd::kSimdOutSlack);
  for (auto _ : state) {
    const std::size_t got =
        k->intersect(a.data(), a.size(), b.data(), b.size(), out.data());
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(out.data());
  }
  SetIsaLabel(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_SimdMergeUnderSkew)
    ->ArgsProduct({{4, 16, 64, 256}, {0, 1, 2}});

void BM_NeighborScan(benchmark::State& state) {
  Graph g = make_barabasi_albert(2000, 8, 11);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (VertexId u : g.neighbors(v)) sum += u;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_adjacency_entries()));
}
BENCHMARK(BM_NeighborScan);

}  // namespace

BENCHMARK_MAIN();
