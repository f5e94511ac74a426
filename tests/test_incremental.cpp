// Tests for incremental (delta) pattern matching and its service wiring:
// randomized differential against full re-enumeration, plan reuse across
// graph epochs, and standing queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/reference.hpp"
#include "core/host_engine.hpp"
#include "delta_support.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stm {
namespace {

const char* const kPatterns[] = {
    "0-1,1-2,2-0",                          // triangle
    "0-1,0-2,0-3,1-2,1-3,2-3",              // 4-clique
    "0-1,1-2,2-3,3-0,0-4,1-4",              // house
};

// ---------------------------------------------------------------------------
// Randomized differential: cumulative deltas == full re-enumeration
// ---------------------------------------------------------------------------

// Short sweeps keep the default `ctest` run fast; the full 216-batch sweep
// lives in test_incremental_sweep.cpp (DeepSweep, STMATCH_SLOW=1 gated).

TEST(IncrementalDifferential, HostEngineMatchesFullReenumeration) {
  int total = 0;
  for (const char* p : kPatterns)
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}})
      total += run_differential(Pattern::parse(p), DeltaEngine::kHost, seed,
                                /*num_batches=*/6, /*batch_edges=*/6);
  EXPECT_EQ(total, 3 * 2 * 6);  // 36 batches checked
}

TEST(IncrementalDifferential, SimtEngineMatchesFullReenumeration) {
  int total = 0;
  for (const char* p : kPatterns)
    total += run_differential(Pattern::parse(p), DeltaEngine::kSimt,
                              /*seed=*/3, /*num_batches=*/4,
                              /*batch_edges=*/6);
  EXPECT_EQ(total, 3 * 4);  // 12 batches checked
}

TEST(IncrementalDifferential, UniqueSubgraphCounts) {
  // Triangle: |Aut| = 6; delta in subgraph units must track the reference.
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  Graph base = make_erdos_renyi(32, 0.18, 17);
  MutableGraph g(base);

  IncrementalOptions opts;
  opts.plan.count_mode = CountMode::kUniqueSubgraphs;
  IncrementalMatcher matcher(triangle, opts);
  EXPECT_EQ(matcher.automorphisms(), 6u);

  ReferenceOptions ref;
  ref.count_mode = CountMode::kUniqueSubgraphs;
  Rng rng(5);
  std::int64_t count = static_cast<std::int64_t>(
      reference_count(g.snapshot()->view(), triangle, ref));
  for (int i = 0; i < 10; ++i) {
    auto from = g.snapshot();
    ApplyResult applied = g.apply(random_batch(*from, rng, 5));
    count += matcher.count_delta(from, applied.applied).delta;
    EXPECT_EQ(count, static_cast<std::int64_t>(reference_count(
                         applied.snapshot->view(), triangle, ref)));
  }
}

TEST(IncrementalDifferential, EmptyDeltaIsZero) {
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  IncrementalMatcher matcher(triangle);
  MutableGraph g(make_clique(5));
  DeltaMatchResult d = matcher.count_delta(g.snapshot(), DeltaEdges{});
  EXPECT_EQ(d.delta, 0);
  EXPECT_EQ(d.anchored_runs, 0u);
}

TEST(IncrementalMatcher, RejectsVertexInducedSemantics) {
  IncrementalOptions opts;
  opts.plan.induced = Induced::kVertex;
  EXPECT_THROW(IncrementalMatcher(Pattern::parse("0-1,1-2"), opts),
               check_error);
}

TEST(IncrementalMatcher, EmbeddingDeltaRejectsUniqueSubgraphMode) {
  // A subgraph can have several embeddings, so an embedding-level delta is
  // only defined for kEmbeddings; the count delta stays available.
  IncrementalOptions opts;
  opts.plan.count_mode = CountMode::kUniqueSubgraphs;
  const IncrementalMatcher matcher(Pattern::parse("0-1,1-2,2-0"), opts);
  MutableGraph g(make_clique(5));
  const auto from = g.snapshot();
  UpdateBatch batch;
  batch.deletions.emplace_back(0, 1);
  const ApplyResult applied = g.apply(batch);
  EXPECT_THROW(matcher.embedding_delta(from, applied.applied), check_error);
  EXPECT_EQ(matcher.count_delta(from, applied.applied).delta, -3);
}

TEST(IncrementalMatcher, KnownTriangleDeltas) {
  // Path 0-1-2: closing the triangle adds exactly 6 embeddings (1 subgraph).
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  MutableGraph g(b.build());
  IncrementalMatcher matcher(Pattern::parse("0-1,1-2,2-0"));

  auto from = g.snapshot();
  UpdateBatch close_it;
  close_it.insertions = {{0, 2}};
  ApplyResult applied = g.apply(close_it);
  EXPECT_EQ(matcher.count_delta(from, applied.applied).delta, 6);

  // And deleting any triangle edge removes them again.
  from = g.snapshot();
  UpdateBatch open_it;
  open_it.deletions = {{0, 1}};
  applied = g.apply(open_it);
  EXPECT_EQ(matcher.count_delta(from, applied.applied).delta, -6);
}

// ---------------------------------------------------------------------------
// Plans across graph epochs
// ---------------------------------------------------------------------------

// A plan is a pure function of (pattern, options): the cache serves the same
// plan at every epoch, and it stays exact on every mutated version.
TEST(IncrementalPlanCache, PlanIsReusedAcrossEpochs) {
  PlanCache cache(8);
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");
  MutableGraph g(make_erdos_renyi(30, 0.2, 4));
  Rng rng(11);
  bool hit = true;
  const auto first = cache.get_or_compile(triangle, {}, &hit);
  EXPECT_FALSE(hit);
  for (int b = 0; b < 4; ++b) {
    const ApplyResult applied = g.apply(random_batch(*g.snapshot(), rng, 12));
    ASSERT_EQ(applied.snapshot->epoch(), static_cast<std::uint64_t>(b + 1));
    const auto plan = cache.get_or_compile(triangle, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(plan, first);
    EXPECT_EQ(host_match(applied.snapshot->view(), *plan).count,
              reference_count(applied.snapshot->view(), triangle, {}));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IncrementalPlanCache, SessionReusesPlanAfterUpdate) {
  GraphSession session(make_erdos_renyi(30, 0.2, 4));
  QueryRequest req;
  req.pattern = Pattern::parse("0-1,1-2,2-0");
  req.deadline_ms = -1.0;

  QueryResult r1 = session.run(req);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.plan_cache_hit);
  EXPECT_EQ(r1.graph_epoch, 0u);

  QueryResult r2 = session.run(req);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.plan_cache_hit);

  // Mutate, re-query: the plan reads no graph, so it is served from the
  // cache, and the count is exact on the new version.
  UpdateBatch batch;
  batch.insertions = {{0, 1}, {0, 2}, {1, 2}};
  batch.deletions = {};
  UpdateOutcome out = session.apply_updates(batch);
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out.epoch, 1u);

  QueryResult r3 = session.run(req);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.plan_cache_hit);
  EXPECT_EQ(r3.graph_epoch, out.epoch);
  EXPECT_EQ(r3.count, reference_count(session.snapshot()->view(), req.pattern,
                                      {}));
  EXPECT_EQ(session.plan_cache().stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Service update path and standing queries
// ---------------------------------------------------------------------------

TEST(StandingQuery, DeliversExactDeltasPerBatch) {
  GraphSession session(make_erdos_renyi(34, 0.15, 9));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse("0-1,1-2,2-0");
  std::atomic<int> callbacks{0};
  cfg.on_update = [&](const StandingQueryUpdate&) { callbacks.fetch_add(1); };
  const std::uint64_t id = session.register_standing_query(cfg);

  auto info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->count, reference_count(session.snapshot()->view(),
                                         cfg.pattern, {}));
  EXPECT_EQ(info->epoch, 0u);

  Rng rng(21);
  int applied_batches = 0;
  for (int i = 0; i < 6; ++i) {
    UpdateBatch batch = random_batch(*session.snapshot(), rng, 5);
    UpdateOutcome out = session.apply_updates(batch);
    ASSERT_TRUE(out.ok());
    if (out.applied.empty()) continue;
    ++applied_batches;
    ASSERT_EQ(out.updates.size(), 1u);
    EXPECT_EQ(out.updates[0].query_id, id);
    EXPECT_EQ(out.updates[0].epoch, out.epoch);
    // The standing count tracks the truth after every batch.
    EXPECT_EQ(out.updates[0].count,
              reference_count(session.snapshot()->view(), cfg.pattern, {}));
  }
  ASSERT_GT(applied_batches, 0);
  EXPECT_EQ(callbacks.load(), applied_batches);

  info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->batches_observed,
            static_cast<std::uint64_t>(applied_batches));
  EXPECT_EQ(info->count, reference_count(session.snapshot()->compacted(),
                                         cfg.pattern, {}));

  EXPECT_TRUE(session.unregister_standing_query(id));
  EXPECT_FALSE(session.unregister_standing_query(id));
  EXPECT_FALSE(session.standing_query(id).has_value());
}

TEST(StandingQuery, SubscriberMayReadStandingState) {
  // Subscribers run after the batch's standing state is final and outside
  // the registry's lock: reading it back from a callback must neither block
  // nor see a half-applied batch, in either evaluation mode.
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "per-pattern");
    SessionConfig scfg;
    scfg.standing_index = indexed;
    GraphSession session(make_erdos_renyi(30, 0.15, 4), scfg);
    std::uint64_t id = 0;
    int update_reads = 0;
    int delta_reads = 0;
    StandingQueryConfig cfg;
    cfg.pattern = Pattern::parse("0-1,1-2,2-0");
    cfg.on_update = [&](const StandingQueryUpdate& u) {
      const auto info = session.standing_query(id);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->count, u.count);
      EXPECT_EQ(info->epoch, u.epoch);
      EXPECT_EQ(session.standing_index_stats().registrations,
                indexed ? 1u : 0u);
      ++update_reads;
    };
    cfg.on_delta = [&](const StandingQueryDelta& d) {
      const auto info = session.standing_query(id);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->epoch, d.epoch);
      ++delta_reads;
    };
    id = session.register_standing_query(cfg);

    Rng rng(8);
    int applied = 0;
    for (int i = 0; i < 3; ++i) {
      std::future<UpdateOutcome> f =
          session.submit_updates(random_batch(*session.snapshot(), rng, 4));
      if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
        // The writer is stuck inside a subscriber; the session cannot be
        // torn down, so end the process with a failure.
        std::fprintf(stderr, "subscriber reading standing state deadlocked\n");
        std::_Exit(1);
      }
      const UpdateOutcome out = f.get();
      ASSERT_TRUE(out.ok());
      applied += out.applied.empty() ? 0 : 1;
    }
    ASSERT_GT(applied, 0);
    EXPECT_EQ(update_reads, applied);
    EXPECT_EQ(delta_reads, applied);
  }
}

TEST(StandingQuery, MetricsTrackUpdates) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  UpdateBatch batch;
  batch.insertions = {{0, 1}};
  batch.deletions = {};
  // Force a definite state: ensure 0-1 absent first.
  if (session.snapshot()->has_edge(0, 1)) {
    UpdateBatch del;
    del.deletions = {{0, 1}};
    ASSERT_TRUE(session.apply_updates(del).ok());
  }
  const std::uint64_t before =
      session.metrics().counter("updates_applied").value();
  UpdateOutcome out = session.apply_updates(batch);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.stats.inserted, 1u);
  EXPECT_EQ(session.metrics().counter("updates_applied").value(), before + 1);
  EXPECT_GE(session.metrics().counter("edges_inserted").value(), 1u);
  EXPECT_EQ(session.metrics().gauge("graph_epoch").value(),
            static_cast<double>(out.epoch));
}

TEST(StandingQuery, InvalidBatchReportsInvalidArgument) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  const std::uint64_t epoch = session.epoch();
  UpdateBatch bad;
  bad.insertions = {{3, 3}};  // self-loop
  UpdateOutcome out = session.apply_updates(bad);
  EXPECT_EQ(out.status, QueryStatus::kInvalidArgument);
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(session.epoch(), epoch);  // graph untouched
}

TEST(StandingQuery, InjectedUpdateFaultLeavesGraphUntouched) {
  SessionConfig cfg;
  cfg.update_fault.seed = 11;
  cfg.update_fault.set_rate(FaultSite::kUpdateApply, 1.0);
  GraphSession session(make_erdos_renyi(20, 0.2, 2), cfg);
  const std::uint64_t epoch = session.epoch();
  const std::uint64_t before =
      session.metrics().counter("updates_failed").value();

  UpdateBatch batch;
  batch.insertions = {{0, 2}, {0, 3}};
  UpdateOutcome out = session.apply_updates(batch);
  EXPECT_EQ(out.status, QueryStatus::kInternalError);
  EXPECT_EQ(session.epoch(), epoch);
  EXPECT_EQ(session.metrics().counter("updates_failed").value(), before + 1);
}

TEST(StandingQuery, RejectsVertexInducedRegistration) {
  GraphSession session(make_erdos_renyi(20, 0.2, 2));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse("0-1,1-2");
  cfg.plan.induced = Induced::kVertex;
  EXPECT_THROW(session.register_standing_query(cfg), check_error);
}

TEST(StandingQuery, SimtEngineStandingQuery) {
  GraphSession session(make_erdos_renyi(26, 0.15, 6));
  StandingQueryConfig cfg;
  cfg.pattern = Pattern::parse("0-1,1-2,2-0");
  cfg.engine = DeltaEngine::kSimt;
  const std::uint64_t id = session.register_standing_query(cfg);

  Rng rng(31);
  for (int i = 0; i < 3; ++i) {
    UpdateBatch batch = random_batch(*session.snapshot(), rng, 4);
    ASSERT_TRUE(session.apply_updates(batch).ok());
  }
  auto info = session.standing_query(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->count, reference_count(session.snapshot()->view(),
                                         cfg.pattern, {}));
}

}  // namespace
}  // namespace stm
