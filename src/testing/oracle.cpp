#include "testing/oracle.hpp"

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string_view>

#include <algorithm>

#include "baselines/reference.hpp"
#include "core/engine.hpp"
#include "core/host_engine.hpp"
#include "core/recursive.hpp"
#include "dist/sharded.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental.hpp"
#include "mqo/evaluator.hpp"
#include "mqo/pattern_index.hpp"
#include "pattern/matching_order.hpp"
#include "service/service.hpp"
#include "service/stream.hpp"
#include "setops/simd.hpp"
#include "storage/store.hpp"
#include "util/check.hpp"

namespace stm::harness {

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kReference:
      return "reference";
    case EngineKind::kRecursive:
      return "recursive";
    case EngineKind::kHost:
      return "host";
    case EngineKind::kSimt:
      return "simt";
    case EngineKind::kIncremental:
      return "incremental";
    case EngineKind::kSharded:
      return "sharded";
    case EngineKind::kStream:
      return "stream";
    case EngineKind::kStorage:
      return "storage";
    case EngineKind::kMqo:
      return "mqo";
  }
  return "unknown";
}

namespace {

bool sabotage_host_off_by_one() {
  const char* mode = std::getenv("STMATCH_FUZZ_SABOTAGE");
  return mode != nullptr && std::string_view(mode) == "host_off_by_one";
}

/// Replays c.graph as a single insertion batch over an edgeless base with
/// the same vertices and labels: count must equal 0 + delta.
std::uint64_t incremental_replay(const TestCase& c) {
  const Graph& g = c.graph;
  Graph empty(std::vector<EdgeId>(static_cast<std::size_t>(g.num_vertices()) + 1, 0),
              {}, g.labels());
  MutableGraph mutable_graph(std::move(empty));

  IncrementalOptions opts;
  opts.plan = c.plan;
  opts.engine = DeltaEngine::kHost;
  IncrementalMatcher matcher(c.pattern, opts);

  UpdateBatch batch;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) batch.insertions.emplace_back(u, v);

  auto from = mutable_graph.snapshot();
  if (batch.insertions.empty()) {
    return 0;  // edgeless graph: connected patterns with >= 2 vertices
               // cannot embed, and the delta of an empty batch is zero
  }
  ApplyResult applied = mutable_graph.apply(batch);
  const DeltaMatchResult d = matcher.count_delta(from, applied.applied);
  STM_CHECK_MSG(d.delta >= 0, "replay over an empty base produced a negative"
                              " delta of " << d.delta);
  return static_cast<std::uint64_t>(d.delta);
}

/// Streamed-embedding lane: with a renumbered isomorph's plan already in
/// the session's cache, for each stream engine the service's drained
/// embedding sequence must be bit-identical (the global order is a pure
/// function of the plan), the multiset must equal the brute-force reference
/// enumeration, and a paged host cursor must concatenate to the full stream
/// with no duplicate or loss. Failures append notes and flip `agreed`.
void run_stream_lane(const TestCase& c, OracleReport* report) {
  using ServiceEngine = ::stm::EngineKind;

  SessionConfig scfg;
  scfg.max_open_streams = 0;  // the lane opens its streams one at a time
  GraphSession session(Graph(c.graph), scfg);

  // Warm the plan cache with a renumbered isomorph of the case pattern (ids
  // rotated by one), so its canonical tier holds a plan compiled from
  // another numbering; the streams below must still enumerate their own
  // pattern. The renumbering depends on the case alone, so no RNG draw
  // moves and every seed and .repro replays unchanged.
  std::vector<std::size_t> rotated(c.pattern.size());
  for (std::size_t i = 0; i < rotated.size(); ++i)
    rotated[i] = (i + 1) % rotated.size();
  const Pattern renumbered = c.pattern.relabeled(rotated);
  if (renumbered.to_string() != c.pattern.to_string())
    session.plan_cache().get_or_compile(renumbered, c.plan);

  const auto base_req = [&c](ServiceEngine kind) {
    QueryRequest q;
    q.pattern = c.pattern;
    q.plan = c.plan;
    q.engine = kind;
    q.host = c.host;
    q.simt = c.simt;
    // The stream owns the outer-loop range knobs; chaos is its own suite.
    q.host.v_begin = 0;
    q.host.fault = FaultConfig{};
    q.simt.v_begin = 0;
    q.simt.v_end = 0;
    q.simt.v_stride = 1;
    q.simt.pin_v1 = kNoVertex;
    q.simt.fault = FaultConfig{};
    return q;
  };
  const auto fail = [report](std::string note) {
    report->agreed = false;
    report->notes.push_back(std::move(note));
  };

  const ServiceEngine kinds[] = {ServiceEngine::kReference,
                                 ServiceEngine::kHost, ServiceEngine::kSimt};
  std::vector<std::vector<Embedding>> streams;
  for (const ServiceEngine kind : kinds) {
    StreamRequest sreq;
    sreq.query = base_req(kind);
    auto s = session.open_stream(std::move(sreq));
    std::vector<Embedding> drained;
    Embedding e;
    while (s->next(&e)) drained.push_back(std::move(e));
    const QueryResult& r = s->result();
    if (!r.ok()) {
      fail(std::string("stream lane: ") + ::stm::to_string(kind) +
           " stream failed: " + r.error);
      return;
    }
    streams.push_back(std::move(drained));
  }

  report->counts.push_back(
      {EngineKind::kStream, static_cast<std::uint64_t>(streams[0].size())});

  for (std::size_t k = 1; k < streams.size(); ++k) {
    if (streams[k] == streams[0]) continue;
    std::size_t at = 0;
    while (at < streams[0].size() && at < streams[k].size() &&
           streams[0][at] == streams[k][at])
      ++at;
    std::ostringstream os;
    os << "stream lane: " << ::stm::to_string(kinds[k])
       << " stream diverges from reference stream at position " << at
       << " (lengths " << streams[k].size() << " vs " << streams[0].size()
       << ")";
    fail(os.str());
    return;
  }

  // Multiset check against the brute-force enumerator (which shares no
  // candidate-set machinery with the streams). Only kEmbeddings: under
  // kUniqueSubgraphs the stream carries symmetry-broken representatives,
  // which the reference does not define in the same vertex order.
  if (c.plan.count_mode == CountMode::kEmbeddings) {
    const std::vector<std::size_t> order = matching_order(c.pattern);
    std::vector<Embedding> ref;
    std::vector<VertexId> orig(c.pattern.size());
    reference_enumerate(GraphView(c.graph), c.pattern,
                        {c.plan.induced, c.plan.count_mode},
                        [&](const std::vector<VertexId>& m) {
                          for (std::size_t i = 0; i < order.size(); ++i)
                            orig[order[i]] = m[i];
                          ref.push_back(orig);
                        });
    std::vector<Embedding> got = streams[0];
    std::sort(ref.begin(), ref.end());
    std::sort(got.begin(), got.end());
    if (got != ref) {
      std::ostringstream os;
      os << "stream lane: streamed multiset (" << got.size()
         << " embeddings) differs from the reference enumeration ("
         << ref.size() << ")";
      fail(os.str());
      return;
    }
  }

  // Cursor lane: drain the host stream again in pages; token resumption
  // must concatenate to the full stream, no duplicate, no loss.
  const std::uint64_t total = streams[0].size();
  const std::uint64_t page = std::max<std::uint64_t>(1, (total + 2) / 3);
  std::vector<Embedding> paged;
  std::string token;
  for (;;) {
    StreamRequest sreq;
    sreq.query = base_req(ServiceEngine::kHost);
    sreq.stream.limit = page;
    sreq.stream.resume_token = token;
    auto s = session.open_stream(std::move(sreq));
    Embedding e;
    std::uint64_t got = 0;
    while (s->next(&e)) {
      paged.push_back(std::move(e));
      ++got;
    }
    const QueryResult& r = s->result();
    if (!r.ok()) {
      fail("stream lane: cursor page failed: " + r.error);
      return;
    }
    token = s->resume_token();
    if (token.empty()) break;
    if (got == 0 || paged.size() > total) {
      fail("stream lane: cursor failed to make progress (delivered " +
           std::to_string(paged.size()) + " of " + std::to_string(total) +
           " with a non-empty resume token)");
      return;
    }
  }
  if (paged != streams[0]) {
    fail("stream lane: cursor pages concatenate to " +
         std::to_string(paged.size()) + " embeddings, full stream has " +
         std::to_string(streams[0].size()));
  }
}

/// Storage lane: rebuilds c.graph under the case's sampled backend and
/// re-runs the optimized engines over the store-backed view. The backend is
/// supposed to be invisible behind the GraphView seam, so every count must
/// equal the raw-CSR count and the reference enumeration must visit the
/// same embeddings in the same order. Spill cases run under the sampled
/// tiny budget with small pages, so eviction churns even on fuzz-sized
/// graphs.
void run_storage_lane(const TestCase& c, const MatchingPlan& plan,
                      std::uint64_t enumerate_cap, OracleReport* report) {
  storage::StoragePolicy policy;
  policy.backend = c.storage_backend;
  if (c.storage_backend == storage::Backend::kSpill) {
    policy.memory_budget_bytes = c.storage_budget_bytes;
    policy.page_size = 256;
  }
  const auto store = storage::GraphStore::build(Graph(c.graph), policy);
  const auto lease = store->lease();
  const GraphView view = store->view();

  const std::uint64_t host = host_match(view, plan, c.host).count;
  report->counts.push_back({EngineKind::kStorage, host});

  const auto fail = [report](std::string note) {
    report->agreed = false;
    report->notes.push_back(std::move(note));
  };
  const std::uint64_t recursive =
      recursive_count_range(view, plan, 0, c.graph.num_vertices());
  if (recursive != report->expected) {
    fail("storage lane: recursive engine counted " + std::to_string(recursive) +
         " over the " + storage::to_string(c.storage_backend) +
         " backend, raw CSR gives " + std::to_string(report->expected));
  }
  const std::uint64_t simt = stmatch_match(view, plan, c.simt).count;
  if (simt != report->expected) {
    fail("storage lane: simt engine counted " + std::to_string(simt) +
         " over the " + storage::to_string(c.storage_backend) +
         " backend, raw CSR gives " + std::to_string(report->expected));
  }

  // Enumeration order, not just counts: the store must serve every neighbor
  // list identically, and the reference enumerator's visit order is a pure
  // function of those lists.
  if (report->expected <= enumerate_cap) {
    const ReferenceOptions ref_opts{c.plan.induced, c.plan.count_mode};
    std::vector<Embedding> raw, stored;
    reference_enumerate(GraphView(c.graph), c.pattern, ref_opts,
                        [&](const std::vector<VertexId>& m) { raw.push_back(m); });
    reference_enumerate(view, c.pattern, ref_opts,
                        [&](const std::vector<VertexId>& m) {
                          stored.push_back(m);
                        });
    if (raw != stored) {
      std::size_t at = 0;
      while (at < raw.size() && at < stored.size() && raw[at] == stored[at])
        ++at;
      fail("storage lane: enumeration over the " +
           std::string(storage::to_string(c.storage_backend)) +
           " backend diverges from the raw CSR at position " +
           std::to_string(at) + " (lengths " + std::to_string(stored.size()) +
           " vs " + std::to_string(raw.size()) + ")");
    }
  }
}

/// Multi-query lane: the case pattern plus its sampled mqo_patterns all
/// registered in one shared-prefix PatternIndex, evaluated in a single trie
/// pass by replaying c.graph as one insertion batch over an edgeless base.
/// Each registration's indexed delta must equal its own
/// IncrementalMatcher's delta and the brute-force count of the full graph;
/// registrations cheap enough to collect must reproduce its embedding_delta
/// lists bit for bit. Failures append notes and flip `agreed`.
void run_mqo_lane(const TestCase& c, const OracleOptions& opts,
                  OracleReport* report) {
  const auto fail = [report](std::string note) {
    report->agreed = false;
    report->notes.push_back(std::move(note));
  };

  std::vector<Pattern> patterns;
  patterns.push_back(c.pattern);
  patterns.insert(patterns.end(), c.mqo_patterns.begin(),
                  c.mqo_patterns.end());

  // Per-registration ground truth first: it also decides which
  // registrations are cheap enough to collect embeddings for.
  PlanOptions lane_plan = c.plan;  // induced == kEdge (lane precondition)
  std::vector<std::uint64_t> expected;
  std::vector<bool> collect;
  for (const Pattern& p : patterns) {
    expected.push_back(reference_count(GraphView(c.graph), p,
                                       {lane_plan.induced,
                                        lane_plan.count_mode}));
    collect.push_back(lane_plan.count_mode == CountMode::kEmbeddings &&
                      expected.back() <= opts.mqo_max_matches);
  }

  mqo::PatternIndex index;
  for (std::size_t i = 0; i < patterns.size(); ++i)
    index.add(i + 1, patterns[i], lane_plan, collect[i]);

  const Graph& g = c.graph;
  Graph empty(
      std::vector<EdgeId>(static_cast<std::size_t>(g.num_vertices()) + 1, 0),
      {}, g.labels());
  MutableGraph mutable_graph(std::move(empty));
  UpdateBatch batch;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) batch.insertions.emplace_back(u, v);

  auto from = mutable_graph.snapshot();
  mqo::EvalResult res;
  DeltaEdges applied;
  if (!batch.insertions.empty()) applied = mutable_graph.apply(batch).applied;
  res = mqo::MultiQueryEvaluator(index).evaluate(from, applied);

  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const mqo::QueryDelta qd = index.project(i + 1, res);
    const std::string who =
        "mqo lane: registration " + std::to_string(i) + " (" +
        patterns[i].to_string() + ")";
    if (qd.delta < 0 ||
        static_cast<std::uint64_t>(qd.delta) != expected[i]) {
      fail(who + " indexed delta " + std::to_string(qd.delta) +
           " != reference count " + std::to_string(expected[i]));
      continue;
    }
    IncrementalOptions iopts;
    iopts.plan = lane_plan;
    const IncrementalMatcher matcher(patterns[i], iopts);
    const std::int64_t loop = applied.empty()
                                  ? 0
                                  : matcher.count_delta(from, applied).delta;
    if (qd.delta != loop) {
      fail(who + " indexed delta " + std::to_string(qd.delta) +
           " != per-pattern delta " + std::to_string(loop));
      continue;
    }
    if (collect[i]) {
      const EmbeddingDelta ed = matcher.embedding_delta(from, applied);
      if (qd.added != ed.added || qd.retracted != ed.retracted) {
        fail(who + " collected " + std::to_string(qd.added.size()) + "+/" +
             std::to_string(qd.retracted.size()) +
             "- embeddings, IncrementalMatcher has " +
             std::to_string(ed.added.size()) + "+/" +
             std::to_string(ed.retracted.size()) + "-");
      }
    }
  }

  // The lane's vote: the case pattern's indexed count over the replay.
  const std::int64_t own = index.project(1, res).delta;
  report->counts.push_back(
      {EngineKind::kMqo,
       own >= 0 ? static_cast<std::uint64_t>(own) : ~std::uint64_t{0}});
}

}  // namespace

OracleReport run_oracle(const TestCase& c, const OracleOptions& opts) {
  STM_CHECK_MSG(c.pattern.size() >= 1, "test case has an empty pattern");
  // ISA lane: the whole oracle (every engine, every storage backend) runs
  // under the case's sampled kernel table, so every cross-engine agreement
  // check doubles as a SIMD-vs-scalar bit-exactness proof on whole-query
  // counts. Case generation samples the knob machine-independently; a level
  // this build or CPU lacks degrades to the auto dispatch here.
  simd::IsaChoice isa_choice = c.forced_isa;
  if (isa_choice != simd::IsaChoice::kAuto &&
      !simd::is_supported(static_cast<simd::IsaLevel>(
          static_cast<std::uint8_t>(isa_choice) - 1)))
    isa_choice = simd::IsaChoice::kAuto;
  const simd::ScopedForceIsa forced_isa(isa_choice);

  OracleReport report;

  const ReferenceOptions ref_opts{c.plan.induced, c.plan.count_mode};
  const GraphView view(c.graph);
  report.expected = reference_count(view, c.pattern, ref_opts);
  report.counts.push_back({EngineKind::kReference, report.expected});

  const MatchingPlan plan(reorder_for_matching(c.pattern), c.plan);
  const std::uint64_t recursive =
      recursive_count_range(view, plan, 0, c.graph.num_vertices());
  report.counts.push_back({EngineKind::kRecursive, recursive});

  if (opts.run_host) {
    std::uint64_t host = host_match(view, plan, c.host).count;
    // Test-only sabotage (see header): exercises detection + minimization.
    if (host > 0 && sabotage_host_off_by_one()) ++host;
    report.counts.push_back({EngineKind::kHost, host});
  } else {
    report.skipped.push_back(EngineKind::kHost);
  }

  if (opts.run_simt) {
    report.counts.push_back(
        {EngineKind::kSimt, stmatch_match(view, plan, c.simt).count});
  } else {
    report.skipped.push_back(EngineKind::kSimt);
  }

  // The incremental path cannot express vertex-induced semantics (an
  // induced match can flip without containing a delta edge) and needs an
  // anchorable edge, i.e. a pattern of >= 2 vertices.
  if (opts.run_incremental && c.plan.induced == Induced::kEdge &&
      c.pattern.size() >= 2 &&
      c.graph.num_edges() <= opts.incremental_max_edges) {
    report.counts.push_back({EngineKind::kIncremental, incremental_replay(c)});
  } else {
    report.skipped.push_back(EngineKind::kIncremental);
  }

  // Sharded coordinator lane: the cut-edge decomposition shares the
  // incremental path's edge-induced-only restriction; num_vertices > 0 is a
  // partition precondition.
  if (opts.run_sharded && c.plan.induced == Induced::kEdge &&
      c.graph.num_vertices() > 0 &&
      c.graph.num_edges() <= opts.sharded_max_edges) {
    dist::PartitionConfig pcfg;
    pcfg.num_shards = c.num_shards;
    pcfg.strategy = c.shard_strategy;
    const dist::ShardedOptions sharded_opts = [&] {
      dist::ShardedOptions o;
      o.plan = c.plan;
      o.local_engine = ::stm::EngineKind::kHost;
      o.host = c.host;
      return o;
    }();
    const dist::ShardedResult r =
        dist::sharded_match(c.graph, c.pattern, pcfg, sharded_opts);
    STM_CHECK_MSG(r.status == QueryStatus::kOk,
                  "sharded lane failed: " << r.error);
    report.counts.push_back({EngineKind::kSharded, r.count});
  } else {
    report.skipped.push_back(EngineKind::kSharded);
  }

  // Stream lane: drains full embedding streams through the service layer,
  // so it materializes every match several times over — bounded by the
  // expected count, which is already known at this point.
  if (opts.run_stream && c.graph.num_vertices() > 0 &&
      report.expected <= opts.stream_max_matches) {
    run_stream_lane(c, &report);
  } else {
    report.skipped.push_back(EngineKind::kStream);
  }

  // Storage lane: cases that sampled the raw backend skip it (the store
  // would be byte-for-byte the CSR already compared above).
  if (opts.run_storage &&
      c.storage_backend != storage::Backend::kUncompressed) {
    run_storage_lane(c, plan, opts.stream_max_matches, &report);
  } else {
    report.skipped.push_back(EngineKind::kStorage);
  }

  // Multi-query lane: shares the incremental path's preconditions (anchored,
  // edge-induced, >= 2 pattern vertices) and its per-delta-edge cost shape.
  if (opts.run_mqo && c.plan.induced == Induced::kEdge &&
      c.pattern.size() >= 2 && c.graph.num_edges() <= opts.mqo_max_edges) {
    run_mqo_lane(c, opts, &report);
  } else {
    report.skipped.push_back(EngineKind::kMqo);
  }

  for (const EngineCount& e : report.counts)
    if (e.count != report.expected) report.agreed = false;
  return report;
}

bool oracle_disagrees(const TestCase& c) { return !run_oracle(c).agreed; }

std::string OracleReport::describe() const {
  std::ostringstream os;
  os << (agreed ? "AGREED" : "DISAGREED") << " expected=" << expected << "\n";
  for (const EngineCount& e : counts) {
    os << "  " << to_string(e.engine) << " = " << e.count
       << (e.count == expected ? "" : "   <-- MISMATCH") << "\n";
  }
  for (const EngineKind k : skipped) os << "  " << to_string(k) << " skipped\n";
  for (const std::string& n : notes) os << "  note: " << n << "\n";
  return os.str();
}

}  // namespace stm::harness
