// Chaos tests for the streaming subsystem: the kEmitDrop site drops posted
// embedding batches in the emission transport; the retained staged copies
// must be retransmitted so the drained stream stays bit-identical to a
// fault-free run, on every engine, including combined with engine-level
// fault sites. Attempt-budget exhaustion must fail the stream cleanly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "core/fault.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"

namespace stm {
namespace {

Pattern triangle() { return Pattern::parse("0-1,1-2,2-0"); }

StreamRequest stream_request(const Pattern& p, EngineKind engine) {
  StreamRequest req;
  req.query.pattern = p;
  req.query.engine = engine;
  return req;
}

std::vector<Embedding> drain(GraphSession& session, StreamRequest req,
                             QueryResult* out) {
  auto s = session.open_stream(std::move(req));
  std::vector<Embedding> got;
  Embedding e;
  while (s->next(&e)) got.push_back(std::move(e));
  *out = s->result();
  return got;
}

TEST(StreamChaos, EmitDropsAreRetransmittedExactly) {
  GraphSession session(make_erdos_renyi(48, 0.2, 13));
  QueryResult clean_result;
  const std::vector<Embedding> clean =
      drain(session, stream_request(triangle(), EngineKind::kHost),
            &clean_result);
  ASSERT_EQ(clean_result.status, QueryStatus::kOk);
  ASSERT_GT(clean.size(), 0u);

  for (const EngineKind engine :
       {EngineKind::kReference, EngineKind::kHost, EngineKind::kSimt}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      StreamRequest req = stream_request(triangle(), engine);
      req.query.host.num_threads = 4;
      // Drop decisions are per posted bucket; small chunks give the 15%
      // rate enough decision points to fire on every seed.
      req.query.host.chunk_size = 1;
      req.query.simt.chunk_size = 1;
      req.stream.emit_fault.seed = seed;
      req.stream.emit_fault.set_rate(FaultSite::kEmitDrop, 0.15);
      QueryResult r;
      const std::vector<Embedding> got = drain(session, req, &r);
      EXPECT_EQ(r.status, QueryStatus::kOk)
          << to_string(engine) << " seed=" << seed << ": " << r.error;
      EXPECT_EQ(got, clean) << to_string(engine) << " seed=" << seed;
      EXPECT_GT(r.stats.faults_injected, 0u)
          << to_string(engine) << " seed=" << seed
          << ": a 15% drop rate over " << clean.size()
          << " embeddings injected nothing";
    }
  }
}

TEST(StreamChaos, EmitDropsComposeWithEngineFaults) {
  GraphSession session(make_erdos_renyi(40, 0.2, 29));
  QueryResult clean_result;
  const std::vector<Embedding> clean =
      drain(session, stream_request(triangle(), EngineKind::kHost),
            &clean_result);
  ASSERT_EQ(clean_result.status, QueryStatus::kOk);
  ASSERT_GT(clean.size(), 0u);

  {
    // Host engine: chunk-task faults force chunk re-runs while the emission
    // transport is dropping batches; both recovery paths must compose.
    StreamRequest req = stream_request(triangle(), EngineKind::kHost);
    req.query.host.num_threads = 4;
    req.query.host.fault.seed = 5;
    req.query.host.fault.set_rate(FaultSite::kHostTask, 0.2);
    req.stream.emit_fault.seed = 6;
    req.stream.emit_fault.set_rate(FaultSite::kEmitDrop, 0.15);
    QueryResult r;
    const std::vector<Embedding> got = drain(session, req, &r);
    EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_EQ(got, clean);
    EXPECT_GT(r.stats.faults_injected, 0u);
  }
  {
    // SIMT engine: warp aborts recover captured frames mid-stack.
    StreamRequest req = stream_request(triangle(), EngineKind::kSimt);
    req.query.simt.fault.seed = 7;
    req.query.simt.fault.set_rate(FaultSite::kWarpAbort, 0.05);
    req.stream.emit_fault.seed = 8;
    req.stream.emit_fault.set_rate(FaultSite::kEmitDrop, 0.15);
    QueryResult r;
    const std::vector<Embedding> got = drain(session, req, &r);
    EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
    EXPECT_EQ(got, clean);
    EXPECT_GT(r.stats.faults_injected, 0u);
  }
}

TEST(StreamChaos, AttemptBudgetExhaustionFailsTheStream) {
  GraphSession session(make_clique(12));
  StreamRequest req = stream_request(triangle(), EngineKind::kHost);
  req.stream.emit_fault.seed = 1;
  req.stream.emit_fault.set_rate(FaultSite::kEmitDrop, 1.0);
  req.stream.emit_fault.max_unit_attempts = 1;
  QueryResult r;
  const std::vector<Embedding> got = drain(session, req, &r);
  EXPECT_EQ(r.status, QueryStatus::kInternalError);
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(got.empty()) << "every delivery was dropped; nothing can have "
                              "reached the consumer";
}

TEST(StreamChaos, EngineThrowFailsTheStreamAndFreesItsSlot) {
  GraphSession session(make_erdos_renyi(40, 0.2, 29));
  MetricsRegistry& m = session.metrics();
  for (const EngineKind engine : {EngineKind::kHost, EngineKind::kSimt}) {
    StreamRequest req = stream_request(triangle(), engine);
    req.query.host.fault.set_rate(FaultSite::kEngineThrow, 1.0);
    req.query.simt.fault.set_rate(FaultSite::kEngineThrow, 1.0);
    const std::uint64_t failed_before = m.counter("queries_failed").value();
    QueryResult r;
    const std::vector<Embedding> got = drain(session, req, &r);
    EXPECT_TRUE(got.empty()) << to_string(engine);
    EXPECT_EQ(r.status, QueryStatus::kInternalError) << to_string(engine);
    EXPECT_FALSE(r.error.empty()) << to_string(engine);
    EXPECT_EQ(m.gauge("open_streams").value(), 0.0) << to_string(engine);
    EXPECT_EQ(m.counter("queries_failed").value(), failed_before + 1)
        << to_string(engine);
  }
  // The producer's failure is contained: the session keeps serving streams.
  QueryResult r;
  const std::vector<Embedding> got =
      drain(session, stream_request(triangle(), EngineKind::kHost), &r);
  EXPECT_EQ(r.status, QueryStatus::kOk) << r.error;
  EXPECT_EQ(got.size(), reference_count(session.graph(), triangle()));
  EXPECT_EQ(r.count, got.size());
}

TEST(StreamChaos, CursorPagesSurviveEmitDrops) {
  GraphSession session(make_erdos_renyi(40, 0.2, 17));
  QueryResult r;
  const std::vector<Embedding> clean =
      drain(session, stream_request(triangle(), EngineKind::kHost), &r);
  ASSERT_EQ(r.status, QueryStatus::kOk);
  ASSERT_GT(clean.size(), 6u);

  std::vector<Embedding> paged;
  std::string token;
  int pages = 0;
  do {
    StreamRequest req = stream_request(triangle(), EngineKind::kHost);
    req.query.host.num_threads = 3;
    req.stream.limit = 5;
    req.stream.resume_token = token;
    req.stream.emit_fault.seed = 11 + static_cast<std::uint64_t>(pages);
    req.stream.emit_fault.set_rate(FaultSite::kEmitDrop, 0.2);
    auto s = session.open_stream(std::move(req));
    Embedding e;
    while (s->next(&e)) paged.push_back(std::move(e));
    ASSERT_EQ(s->result().status, QueryStatus::kOk) << s->result().error;
    token = s->resume_token();
    ASSERT_LE(++pages, 1000) << "cursor failed to terminate";
  } while (!token.empty());
  EXPECT_EQ(paged, clean);
}

}  // namespace
}  // namespace stm
