// Deep incremental-matching sweep: the full 216-batch differential run that
// used to dominate the default ctest wall clock. Lives in the `slow` CTest
// tier (see tests/CMakeLists.txt) and self-skips unless STMATCH_SLOW=1 is
// set, so `ctest -L slow` plus the environment variable runs it and a plain
// `ctest -j` finishes fast. test_incremental.cpp keeps a short version of
// the same sweep for everyday coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "delta_support.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

bool slow_tests_enabled() {
  const char* flag = std::getenv("STMATCH_SLOW");
  return flag != nullptr && flag[0] == '1';
}

#define STMATCH_REQUIRE_SLOW()                                       \
  if (!slow_tests_enabled())                                         \
  GTEST_SKIP() << "set STMATCH_SLOW=1 to run the deep sweeps"

const char* const kPatterns[] = {
    "0-1,1-2,2-0",                          // triangle
    "0-1,0-2,0-3,1-2,1-3,2-3",              // 4-clique
    "0-1,1-2,2-3,3-0,0-4,1-4",              // house
};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(DeepSweep, DeltaCpuEngineFullReenumeration) {
  STMATCH_REQUIRE_SLOW();
  int total = 0;
  for (const char* p : kPatterns)
    for (std::uint64_t seed : kSeeds)
      total += run_differential(Pattern::parse(p), DeltaEngine::kHost, seed,
                                /*num_batches=*/16, /*batch_edges=*/6);
  EXPECT_EQ(total, 3 * 3 * 16);  // 144 batches checked
}

TEST(DeepSweep, DeltaSimtFullReenumeration) {
  STMATCH_REQUIRE_SLOW();
  int total = 0;
  for (const char* p : kPatterns)
    for (std::uint64_t seed : kSeeds)
      total += run_differential(Pattern::parse(p), DeltaEngine::kSimt, seed,
                                /*num_batches=*/8, /*batch_edges=*/6);
  EXPECT_EQ(total, 3 * 3 * 8);  // 72 batches checked (216 with the other run)
}

}  // namespace
}  // namespace stm
