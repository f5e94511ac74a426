// Host-engine work stealing (DESIGN.md §6): idle workers take the upper
// half of the busiest worker's remaining range at its shallowest splittable
// level. Splitting must not be observable in the results: counts, work
// counters, the sequenced embedding stream and the fault schedule all match
// a single-threaded run bit for bit, whatever the thread count and chunk
// size. chunk_size >= n leaves one chunk, so every bit of parallelism there
// comes from stealing.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "pattern/matching_order.hpp"
#include "pattern/queries.hpp"
#include "service/service.hpp"
#include "stream/emit.hpp"
#include "stream/sequencer.hpp"

namespace stm {
namespace {

const Graph& skewed_enron() {
  static const Graph g = make_skewed_dataset("enron", 0.25);
  return g;
}

MatchingPlan plan_for(int q) {
  return MatchingPlan(reorder_for_matching(query(q)), {});
}

HostEngineConfig host_cfg(std::size_t threads, VertexId chunk_size) {
  HostEngineConfig cfg;
  cfg.num_threads = threads;
  cfg.chunk_size = chunk_size;
  return cfg;
}

FaultConfig host_task_faults(double rate, std::uint64_t seed) {
  FaultConfig fault;
  fault.seed = seed;
  fault.set_rate(FaultSite::kHostTask, rate);
  return fault;
}

/// Runs host_match into an OutputSequencer and drains it on this thread.
std::vector<Embedding> drain_host(const Graph& g, const MatchingPlan& plan,
                                  const HostEngineConfig& cfg,
                                  HostMatchResult* out) {
  stream::OutputSequencer seq;
  stream::EmitPipeline pipe(seq, {});
  std::thread producer([&] {
    *out = host_match(g, plan, cfg, nullptr, &pipe);
    seq.finish(out->stats.status, "");
  });
  std::vector<Embedding> got;
  Embedding e;
  while (seq.next(&e)) got.push_back(std::move(e));
  producer.join();
  return got;
}

/// A chunk_size no graph reaches: the whole vertex range is one chunk.
constexpr VertexId kOneChunk = kMaxVertices;

/// (query, chunk_size). One test per pair keeps each within the per-test
/// timeout of sanitizer builds, where q18 alone runs for minutes.
using StealCase = std::tuple<int, VertexId>;

class HostSteal : public ::testing::TestWithParam<StealCase> {};

// count, scalar_ops and sets_built at 1/2/4/8 threads equal a 1-thread run
// at the default chunk size; one chunk at 4 threads steals.
TEST_P(HostSteal, MatchesOneThreadBitForBit) {
  const auto [q, chunk] = GetParam();
  const Graph& g = skewed_enron();
  const MatchingPlan plan = plan_for(q);
  const HostMatchResult base = host_match(g, plan, host_cfg(1, 16));
  ASSERT_EQ(base.stats.status, QueryStatus::kOk);
  EXPECT_EQ(base.stats.steals, 0u);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    if (threads == 1 && chunk == 16) continue;  // that is `base`
    const HostMatchResult r = host_match(g, plan, host_cfg(threads, chunk));
    const std::string where = "threads " + std::to_string(threads);
    ASSERT_EQ(r.stats.status, QueryStatus::kOk) << where;
    EXPECT_EQ(r.count, base.count) << where;
    EXPECT_EQ(r.stats.scalar_ops, base.stats.scalar_ops) << where;
    EXPECT_EQ(r.stats.sets_built, base.stats.sets_built) << where;
    if (threads == 1) {
      EXPECT_EQ(r.stats.steals, 0u) << where;
    }
    if (threads == 4 && chunk == kOneChunk) {
      EXPECT_GT(r.stats.steals, 0u) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkewedEnron, HostSteal,
    ::testing::Combine(::testing::Values(9, 10, 11, 18, 21),
                       ::testing::Values(VertexId{1}, VertexId{16},
                                         kOneChunk)),
    [](const ::testing::TestParamInfo<StealCase>& info) {
      const VertexId chunk = std::get<1>(info.param);
      return "q" + std::to_string(std::get<0>(info.param)) + "_" +
             (chunk == kOneChunk ? std::string("one_chunk")
                                 : "chunk" + std::to_string(chunk));
    });

TEST(HostStealStream, OneChunkStreamIdenticalAtOneAndFourThreads) {
  const Graph& g = skewed_enron();
  for (const int q : {3, 13}) {
    const MatchingPlan plan = plan_for(q);
    HostMatchResult one, four;
    const std::vector<Embedding> want =
        drain_host(g, plan, host_cfg(1, kOneChunk), &one);
    const std::vector<Embedding> got =
        drain_host(g, plan, host_cfg(4, kOneChunk), &four);
    ASSERT_EQ(four.stats.status, QueryStatus::kOk) << "q" << q;
    EXPECT_GT(four.stats.steals, 0u) << "q" << q;
    EXPECT_EQ(want.size(), one.count) << "q" << q;
    EXPECT_EQ(got.size(), four.count) << "q" << q;
    EXPECT_TRUE(got == want) << "q" << q;
  }
}

TEST(HostStealChaos, OneChunkFaultsReplayExactly) {
  const Graph& g = skewed_enron();
  const MatchingPlan plan = plan_for(21);
  const std::uint64_t expected = host_match(g, plan, host_cfg(1, 16)).count;
  bool fired = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    HostEngineConfig cfg = host_cfg(4, kOneChunk);
    cfg.fault = host_task_faults(0.25, seed);
    const HostMatchResult first = host_match(g, plan, cfg);
    ASSERT_EQ(first.stats.status, QueryStatus::kOk) << "seed " << seed;
    EXPECT_EQ(first.count, expected) << "seed " << seed;
    // One chunk: every failure re-runs it, and it recovers once.
    EXPECT_EQ(first.stats.units_recovered,
              first.stats.faults_injected > 0 ? 1u : 0u)
        << "seed " << seed;
    fired = fired || first.stats.faults_injected > 0;
    const HostMatchResult replay = host_match(g, plan, cfg);
    EXPECT_EQ(replay.count, first.count) << "seed " << seed;
    EXPECT_EQ(replay.stats.faults_injected, first.stats.faults_injected)
        << "seed " << seed;
    EXPECT_EQ(replay.stats.units_recovered, first.stats.units_recovered)
        << "seed " << seed;
  }
  EXPECT_TRUE(fired);
}

TEST(HostStealChaos, FailedChunkDiscardsEveryStolenPiece) {
  // A failed attempt's pieces staged embeddings into the chunk's bucket;
  // none of them may reach the stream, or the retry would duplicate them.
  const Graph& g = skewed_enron();
  const MatchingPlan plan = plan_for(13);
  HostMatchResult clean, chaos;
  const std::vector<Embedding> want =
      drain_host(g, plan, host_cfg(1, kOneChunk), &clean);
  bool fired = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    HostEngineConfig cfg = host_cfg(4, kOneChunk);
    cfg.fault = host_task_faults(0.25, seed);
    const std::vector<Embedding> got = drain_host(g, plan, cfg, &chaos);
    ASSERT_EQ(chaos.stats.status, QueryStatus::kOk) << "seed " << seed;
    EXPECT_EQ(chaos.count, clean.count) << "seed " << seed;
    EXPECT_TRUE(got == want) << "seed " << seed;
    fired = fired || chaos.stats.faults_injected > 0;
  }
  EXPECT_TRUE(fired);
}

TEST(HostStealMetrics, SessionExportsEngineStealsTotal) {
  GraphSession session(make_skewed_dataset("enron", 0.25));
  QueryRequest req;
  req.pattern = query(21);
  req.engine = EngineKind::kHost;
  req.host = host_cfg(4, kOneChunk);
  const QueryResult host = session.run(req);
  ASSERT_EQ(host.status, QueryStatus::kOk);
  EXPECT_GT(host.stats.steals, 0u);
  Counter& steals = session.metrics().counter("engine_steals_total");
  EXPECT_EQ(steals.value(), host.stats.steals);

  // The SIMT engine reports its local plus global steals.
  GraphSession simt_session(make_erdos_renyi(64, 0.15, /*seed=*/7));
  QueryRequest simt_req;
  simt_req.pattern = query(2);
  simt_req.engine = EngineKind::kSimt;
  const QueryResult simt = simt_session.run(simt_req);
  ASSERT_EQ(simt.status, QueryStatus::kOk);
  EXPECT_EQ(simt_session.metrics().counter("engine_steals_total").value(),
            simt.stats.steals);
  const MatchResult direct =
      stmatch_match(simt_session.graph(), plan_for(2), {});
  EXPECT_GT(direct.query.steals, 0u);
  EXPECT_EQ(direct.query.steals,
            direct.stats.local_steals + direct.stats.global_steals);
}

}  // namespace
}  // namespace stm
