// Dynamic graph demo: batched updates, versioned snapshots, and standing
// queries maintained incrementally.
//
//   ./example_dynamic_updates [n] [batches]
//
//   n         Barabási–Albert graph size (default 2000)
//   batches   update batches to stream (default 8)
//
// Shows the update lifecycle end to end: a standing triangle count
// registered against the session, random insert/delete batches applied
// through the service (epoch bumps; cached plans stay valid), per-batch
// exact count deltas delivered to the subscriber, a query pinned to an old
// snapshot staying epoch-consistent, and the delta-vs-full speedup gauge.
#include <cstdio>
#include <string>
#include <utility>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "pattern/pattern.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace stm;
  const VertexId n = argc > 1 ? static_cast<VertexId>(std::stoul(argv[1])) : 2000;
  const int batches = argc > 2 ? std::stoi(argv[2]) : 8;

  Graph g = make_barabasi_albert(n, 6, 42);
  std::printf("graph: %zu vertices, %zu edges\n",
              static_cast<std::size_t>(g.num_vertices()),
              static_cast<std::size_t>(g.num_edges()));

  GraphSession session(std::move(g));
  const Pattern triangle = Pattern::parse("0-1,1-2,2-0");

  // A standing query: one full enumeration now, exact deltas per batch after.
  StandingQueryConfig standing;
  standing.pattern = triangle;
  standing.on_update = [](const StandingQueryUpdate& u) {
    std::printf("  standing query %llu @ epoch %llu: delta %+lld -> count %llu"
                "  (%.3f ms)\n",
                static_cast<unsigned long long>(u.query_id),
                static_cast<unsigned long long>(u.epoch),
                static_cast<long long>(u.delta),
                static_cast<unsigned long long>(u.count), u.delta_ms);
  };
  const std::uint64_t id = session.register_standing_query(standing);
  std::printf("registered standing triangle count: %llu embeddings (full "
              "enumeration: %.2f ms)\n\n",
              static_cast<unsigned long long>(session.standing_query(id)->count),
              session.standing_query(id)->full_ms);

  // Hold the epoch-0 snapshot: queries against it stay consistent while the
  // writer publishes newer versions.
  auto old_snap = session.snapshot();

  Rng rng(7);
  for (int b = 0; b < batches; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 12; ++i) {
      const auto u = static_cast<VertexId>(rng() % n);
      const auto v = static_cast<VertexId>(rng() % n);
      if (u == v) continue;
      if (session.snapshot()->has_edge(u, v)) {
        batch.deletions.emplace_back(u, v);
      } else {
        batch.insertions.emplace_back(u, v);
      }
    }
    UpdateOutcome out = session.apply_updates(std::move(batch));
    std::printf("batch %d: %s  epoch=%llu  +%llu/-%llu edges  (%.3f ms apply, "
                "%.3f ms incremental)\n",
                b, out.ok() ? "ok" : out.error.c_str(),
                static_cast<unsigned long long>(out.epoch),
                static_cast<unsigned long long>(out.stats.inserted),
                static_cast<unsigned long long>(out.stats.deleted),
                out.update_ms, out.incremental_ms);
  }

  // The held snapshot still answers with the epoch-0 graph.
  std::printf("\nepoch-0 snapshot still counts %llu triangles; live version "
              "(epoch %llu) counts %llu\n",
              static_cast<unsigned long long>(
                  reference_count(old_snap->view(), triangle, {})),
              static_cast<unsigned long long>(session.epoch()),
              static_cast<unsigned long long>(reference_count(
                  session.snapshot()->view(), triangle, {})));

  // Queries through the service carry the epoch they executed against. The
  // plan reads no data graph, so the one compiled for the standing query's
  // baseline at epoch 0 still serves it (a cache hit).
  QueryRequest req;
  req.pattern = triangle;
  req.deadline_ms = -1.0;
  QueryResult r = session.run(req);
  std::printf("service query: count=%llu epoch=%llu cache_%s\n",
              static_cast<unsigned long long>(r.count),
              static_cast<unsigned long long>(r.graph_epoch),
              r.plan_cache_hit ? "hit" : "miss");

  std::printf("delta_vs_full_speedup gauge: %.1fx\n",
              session.metrics().gauge("delta_vs_full_speedup").value());

  // Fold the deltas back into a fresh CSR; the epoch (and the counts) stay.
  session.compact();
  std::printf("after compact: epoch=%llu, standing count=%llu\n",
              static_cast<unsigned long long>(session.epoch()),
              static_cast<unsigned long long>(
                  session.standing_query(id)->count));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
