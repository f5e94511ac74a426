// update_standing: one writer of flat 64-edge batches through
// GraphSession::apply_updates (WAL with fsync, a checkpoint every 64
// batches, 1,000 indexed standing queries), two closed-loop readers, then
// close + reopen from the state directory to time recovery.
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "graph/datasets.hpp"
#include "layers.hpp"
#include "pattern/queries.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Standing-query evaluation mode. The only place the benchmark sets it.
constexpr bool kStandingIndex = true;
constexpr std::size_t kSwaps = 16;  // 32 deletions + 32 insertions
constexpr std::uint32_t kCheckpointEvery = 64;
/// The timed phase ends this many batches past a checkpoint, so every
/// reopen replays the same WAL tail length.
constexpr std::uint64_t kTailBatches = 32;
constexpr std::size_t kReplayBatches = 64;
constexpr int kReopens = 5;
constexpr std::size_t kReaders = 2;

stm::SessionConfig session_config(const std::string& dir) {
  stm::SessionConfig cfg;
  cfg.persistence.dir = dir;
  cfg.persistence.fsync = true;
  cfg.persistence.checkpoint_every_batches = kCheckpointEvery;
  cfg.standing_index = kStandingIndex;
  return cfg;
}

struct Read {
  int query = 0;
  double latency_ms = 0.0;
  QueryResult result;
};

/// Reference counts of every (query, epoch) a reader saw, computed on graph
/// versions rebuilt by replaying the recorded batches from the initial graph
/// (the session's published versions must equal them). Snapshots are held
/// only while their batch of reference tasks runs.
std::map<std::pair<int, std::uint64_t>, std::uint64_t> read_references(
    const Graph& initial, std::uint64_t first_epoch,
    const std::vector<UpdateBatch>& batches,
    const std::set<std::pair<std::uint64_t, int>>& needed, Tracer& tracer) {
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> out;
  stm::MutableGraph g(initial, first_epoch);
  std::vector<RefTask> tasks;
  std::vector<std::pair<int, std::uint64_t>> keys;
  auto flush = [&] {
    const std::vector<Reference> refs = reference_counts(tasks, tracer);
    for (std::size_t i = 0; i < refs.size(); ++i) out[keys[i]] = refs[i].count;
    tasks.clear();
    keys.clear();
  };
  auto it = needed.begin();
  for (std::size_t b = 0; b <= batches.size() && it != needed.end(); ++b) {
    if (b > 0) g.apply(batches[b - 1]);
    const auto snap = g.snapshot();
    for (; it != needed.end() && it->first == snap->epoch(); ++it) {
      tasks.push_back({it->second, snap});
      keys.emplace_back(it->second, it->first);
    }
    if (tasks.size() >= 64) flush();
  }
  flush();
  return out;
}

}  // namespace

Report run_update_standing(const Args& args, Tracer& tracer) {
  Report report;
  report.workload = "update_standing";
  fingerprint(args.work_dir, report);
  const std::vector<int> registrations = standing_registrations(args.seed);
  const std::vector<int> read_queries = {1, 2, 3, 4, 5, 6, 7, 8};

  // ---- set-up, kSetupReps times; the last session is kept --------------
  std::unique_ptr<stm::GraphSession> session;
  std::string state_dir;
  std::vector<std::uint64_t> ids;
  std::vector<double> setup_s, generate_ms;
  double decode_ops_per_query = 0.0;
  for (std::uint64_t rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    if (!state_dir.empty()) fs::remove_all(state_dir);
    state_dir = args.work_dir + "/state-" + std::to_string(rep);
    fs::remove_all(state_dir);
    ids.clear();
    const auto setup_span = tracer.span("bench.setup", rep);
    stm::Timer total;
    Graph g;
    {
      const auto span = tracer.span("graph.make_dataset", rep);
      stm::Timer t;
      g = stm::make_dataset("enron", 1.0);
      generate_ms.push_back(t.elapsed_ms());
    }
    {
      const auto span = tracer.span("service.construct", rep);
      session = std::make_unique<stm::GraphSession>(std::move(g),
                                                    session_config(state_dir));
    }
    for (std::size_t i = 0; i < registrations.size(); ++i) {
      stm::StandingQueryConfig sq;
      sq.pattern = stm::query(registrations[i]);
      sq.plan = unique_subgraphs();
      const auto span = tracer.span("service.register_standing_query", i);
      ids.push_back(session->register_standing_query(std::move(sq)));
    }
    for (const int q : read_queries) {
      const auto span = tracer.span("service.run", q);
      const QueryResult r = session->run(make_request(q, -1.0));
      if (!r.ok()) report.fail("warm-up q" + std::to_string(q) + ": " + r.error);
    }
    setup_s.push_back(total.elapsed_seconds());
    decode_ops_per_query =
        static_cast<double>(
            session->metrics().counter("storage_decode_ops_total").value()) /
        static_cast<double>(read_queries.size());
  }
  const Graph initial = session->snapshot()->compacted();
  const std::uint64_t first_epoch = session->epoch();

  // ---- timed phase: one writer, two readers -----------------------------
  FlatBatchGenerator gen(initial, args.seed);
  std::vector<UpdateBatch> applied;
  std::vector<Sample> updates;
  std::atomic<bool> writer_done{false};
  std::mutex deck_mu;
  Deck read_deck(read_queries, args.seed ^ 0x2eadULL);
  std::uint64_t next_read = 0;  // guarded by deck_mu
  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      while (!writer_done.load()) {
        int q = 0;
        std::uint64_t ticket = 0;
        {
          std::lock_guard<std::mutex> lock(deck_mu);
          ticket = next_read++;
          q = read_deck.at(ticket);
        }
        const auto span = tracer.span("service.run", ticket);
        stm::Timer t;
        QueryResult r = session->run(make_request(q, -1.0));
        reads[c].push_back({q, t.elapsed_ms(), std::move(r)});
      }
    });
  }
  stm::Timer phase;
  for (std::uint64_t b = 1;; ++b) {
    const auto batch_span = tracer.span("bench.update_batch", b);
    UpdateBatch batch = gen.next(kSwaps);
    applied.push_back(batch);
    const double sent_s = phase.elapsed_seconds();
    stm::Timer t;
    stm::UpdateOutcome out;
    {
      const auto span = tracer.span("service.apply_updates", b);
      out = session->apply_updates(std::move(batch));
    }
    updates.push_back({b, sent_s, t.elapsed_ms(), true, true});
    ++report.attempted;
    if (!out.ok()) {
      report.fail("batch " + std::to_string(b) + ": " + out.error);
      break;
    }
    if (out.stats.inserted != 2 * kSwaps || out.stats.deleted != 2 * kSwaps ||
        out.epoch != first_epoch + b || out.updates.size() != ids.size()) {
      report.fail("batch " + std::to_string(b) + " applied +" +
                  std::to_string(out.stats.inserted) + "/-" +
                  std::to_string(out.stats.deleted) + " at epoch " +
                  std::to_string(out.epoch));
      break;
    }
    ++report.ok;
    if (phase.elapsed_seconds() >= args.seconds && b >= kCheckpointEvery &&
        b % kCheckpointEvery == kTailBatches)
      break;
  }
  const double elapsed_s = phase.elapsed_seconds();
  writer_done.store(true);
  for (auto& t : readers) t.join();
  const double rss_mb = peak_rss_mb();

  // ---- correctness gate --------------------------------------------------
  std::vector<Read> all_reads;
  std::set<std::pair<std::uint64_t, int>> needed;
  for (auto& v : reads)
    for (auto& r : v) {
      needed.emplace(r.result.graph_epoch, r.query);
      all_reads.push_back(std::move(r));
    }
  const auto read_refs =
      read_references(initial, first_epoch, applied, needed, tracer);
  std::vector<double> read_ms;
  std::vector<QueryResult> read_results;
  for (const Read& r : all_reads) {
    const auto it = read_refs.find({r.query, r.result.graph_epoch});
    if (it == read_refs.end()) {
      ++report.attempted;
      report.fail("read at unknown epoch " +
                  std::to_string(r.result.graph_epoch));
      continue;
    }
    check_query(r.result, r.query, it->second, report);
    if (r.result.ok()) read_ms.push_back(r.latency_ms);
    read_results.push_back(r.result);
  }

  // Standing counts against a fresh full count on the final snapshot.
  const auto final_snap = session->snapshot();
  if (final_snap->num_edges() != initial.num_edges())
    report.fail("|E| drifted from " + std::to_string(initial.num_edges()) +
                " to " + std::to_string(final_snap->num_edges()));
  std::vector<RefTask> final_tasks;
  for (const int q : read_queries) final_tasks.push_back({q, final_snap});
  const std::vector<Reference> final_refs =
      reference_counts(final_tasks, tracer);
  std::map<std::uint64_t, std::uint64_t> standing_before;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto info = session->standing_query(ids[i]);
    const std::uint64_t want =
        final_refs[static_cast<std::size_t>(registrations[i] - 1)].count;
    if (!info.has_value() || info->count != want ||
        info->epoch != final_snap->epoch()) {
      report.fail("standing query " + std::to_string(ids[i]) + " (q" +
                  std::to_string(registrations[i]) + ") counts " +
                  (info ? std::to_string(info->count) : "nothing") +
                  ", fresh count " + std::to_string(want));
    }
    if (info.has_value()) standing_before[ids[i]] = info->count;
  }
  const stm::mqo::IndexStats index_stats = session->standing_index_stats();
  report.info["session_groups"] = std::to_string(index_stats.groups);
  report.info["session_trie_nodes"] = std::to_string(index_stats.trie.nodes);

  // ---- close, then reopen from the state directory ----------------------
  const std::uint64_t epoch_before = session->epoch();
  session.reset();
  std::vector<double> recovery_ms;
  for (int rep = 0; rep < kReopens; ++rep) {
    const auto span = tracer.span("service.restore", rep);
    stm::Timer t;
    auto reopened = stm::GraphSession::restore(session_config(state_dir));
    recovery_ms.push_back(t.elapsed_ms());
    report.info["recovery_replayed_batches"] =
        std::to_string(reopened->recovery_report().replayed_batches);
    ++report.attempted;
    bool same = reopened->epoch() == epoch_before;
    for (const auto& [id, count] : standing_before) {
      const auto info = reopened->standing_query(id);
      same = same && info.has_value() && info->count == count;
    }
    if (same) {
      ++report.ok;
    } else {
      report.fail("reopen " + std::to_string(rep) +
                  " did not reproduce epoch " + std::to_string(epoch_before) +
                  " and every standing count");
    }
  }

  // ---- metrics -----------------------------------------------------------
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  // Windows of whole checkpoint cycles: each holds one checkpoint install.
  // The gated tail is p90. p99 (printed below) sits among the few
  // checkpointing batches and fsync stalls of the shared disk; its spread
  // across runs reached 55% of the median.
  const Windowed win = windowed(updates, kCheckpointEvery, elapsed_s, 90);
  std::vector<double> update_ms;
  for (const Sample& u : updates) update_ms.push_back(u.latency_ms);
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("peak_rss_mb", rss_mb, "MB");
  report.e2e("fail_frac", static_cast<double>(report.failed) / attempted,
             "ratio");
  report.e2e("update_p50_ms", win.p50_ms, "ms");
  report.e2e("update_p90_ms", win.tail_ms, "ms");
  report.e2e("update_p99_ms", pct(update_ms, 99), "ms");
  report.e2e("update_rate_per_s", win.rate_per_s, "1/s");
  report.e2e("read_p99_ms", pct(read_ms, 99), "ms");
  report.e2e("recovery_ms", median(recovery_ms), "ms");
  report.gate("setup_s", median(setup_s), "s");
  report.gate("peak_rss_mb", rss_mb, "MB");
  report.gate("p50_ms", win.p50_ms, "ms");
  report.gate("tail_ms", win.tail_ms, "ms");
  report.gate("throughput_per_s", win.rate_per_s, "1/s");
  report.info["measured_s"] = std::to_string(elapsed_s);
  report.info["batches"] = std::to_string(updates.size());
  report.info["reads"] = std::to_string(all_reads.size());
  report.info["fsync"] = "true";

  if (args.trace) {
    const auto snap0 = stm::MutableGraph(initial, first_epoch).snapshot();
    std::vector<RefTask> tasks;
    for (const int q : read_queries) tasks.push_back({q, snap0});
    const std::vector<Reference> refs0 = reference_counts(tasks, tracer);
    service_metrics(read_results, report);
    report.layer("graph.generate_ms", median(generate_ms), "ms");
    report.layer("storage.decode_ops", decode_ops_per_query, "count");
    probe_pattern(read_queries, tracer, report);
    probe_core(*snap0, read_queries, refs0, read_queries, tracer, report);
    probe_setops(*snap0, tracer, report);
    probe_storage(*snap0, tracer, report);
    const std::vector<UpdateBatch> replay(
        applied.begin(),
        applied.begin() + static_cast<std::ptrdiff_t>(
                              std::min(kReplayBatches, applied.size())));
    probe_update_path(initial, replay, registrations,
                      args.work_dir + "/replay", tracer, report);
    probe_recover_load(state_dir, tracer, report);
  }
  return report;
}

}  // namespace perfbench
