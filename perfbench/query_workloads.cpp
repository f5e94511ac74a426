// query_mix, query_overload and hub_query: read-only GraphSession load on
// the hub-skewed enron proxy (make_skewed_dataset("enron", 0.25)).
#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "graph/datasets.hpp"
#include "layers.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// query_overload's offered load, requests per second. Above query_mix's
/// closed-loop capacity; BENCHMARK.json records the same number.
constexpr double kOverloadRate = 400.0;
constexpr double kOverloadDeadlineMs = 100.0;

struct QuerySpec {
  std::vector<int> queries;
  stm::SessionConfig cfg;
  /// Closed-loop clients; 0 = open loop at kOverloadRate.
  std::size_t clients = 1;
  /// Per-request deadline (-1 = none, 0 = the session default).
  double deadline_ms = -1.0;
  /// Patterns of the core.parallel_eff probe.
  std::vector<int> eff_queries;
};

struct Served {
  int query = 0;
  std::uint64_t ticket = 0;
  /// Send time, seconds since the timed phase started.
  double sent_s = 0.0;
  /// Closed loop: submit to result. Open loop: due time to result.
  double latency_ms = 0.0;
  QueryResult result;
};

std::vector<int> range(int lo, int hi) {
  std::vector<int> out;
  for (int q = lo; q <= hi; ++q) out.push_back(q);
  return out;
}

std::vector<int> mix_queries() {
  std::vector<int> out = range(1, 16);
  for (int q = 21; q <= 24; ++q) out.push_back(q);
  return out;
}

struct Setup {
  std::unique_ptr<stm::GraphSession> session;
  double setup_s = 0.0;
  double generate_ms = 0.0;
  double decode_ops_per_query = 0.0;
};

/// Graph build + session construction + one warm-up run of every distinct
/// pattern (fills the plan cache), kSetupReps times; the last session is
/// kept.
Setup set_up(const QuerySpec& spec, Tracer& tracer, Report& report) {
  const std::set<int> distinct(spec.queries.begin(), spec.queries.end());
  std::vector<double> setup_s, generate_ms;
  Setup out;
  for (std::uint64_t rep = 0; rep < kSetupReps; ++rep) {
    out.session.reset();
    const auto setup_span = tracer.span("bench.setup", rep);
    stm::Timer total;
    Graph g;
    {
      const auto span = tracer.span("graph.make_skewed_dataset", rep);
      stm::Timer t;
      g = stm::make_skewed_dataset("enron", 0.25);
      generate_ms.push_back(t.elapsed_ms());
    }
    {
      const auto span = tracer.span("service.construct", rep);
      out.session = std::make_unique<stm::GraphSession>(std::move(g), spec.cfg);
    }
    for (const int q : distinct) {
      const auto span = tracer.span("service.run", q);
      const QueryResult r = out.session->run(make_request(q, spec.deadline_ms));
      if (!r.ok() && r.status != stm::QueryStatus::kDeadlineExceeded)
        report.fail("warm-up q" + std::to_string(q) + ": " + r.error);
    }
    setup_s.push_back(total.elapsed_seconds());
    out.decode_ops_per_query =
        static_cast<double>(
            out.session->metrics().counter("storage_decode_ops_total").value()) /
        static_cast<double>(distinct.size());
  }
  out.setup_s = median(setup_s);
  out.generate_ms = median(generate_ms);
  return out;
}

std::vector<Served> closed_loop(stm::GraphSession& session,
                                const QuerySpec& spec, std::uint64_t seed,
                                double seconds, Tracer& tracer,
                                double* elapsed_s) {
  Ticketer tickets(Deck(spec.queries, seed), seconds);
  std::vector<std::vector<Served>> per_client(spec.clients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t ticket = 0;
      int q = 0;
      while (tickets.next(&ticket, &q)) {
        const auto span = tracer.span("service.run", ticket);
        const double sent_s = tickets.elapsed_s();
        stm::Timer t;
        QueryResult r = session.run(make_request(q, spec.deadline_ms));
        per_client[c].push_back({q, ticket, sent_s, t.elapsed_ms(), std::move(r)});
      }
    });
  }
  for (auto& t : clients) t.join();
  *elapsed_s = tickets.elapsed_s();
  std::vector<Served> out;
  for (auto& v : per_client)
    for (auto& s : v) out.push_back(std::move(s));
  return out;
}

/// Seeded Poisson arrivals at kOverloadRate for `seconds`, submitted from
/// this thread without waiting; latency runs from each request's due time.
std::vector<Served> open_loop(stm::GraphSession& session,
                              const QuerySpec& spec, std::uint64_t seed,
                              double seconds, Tracer& tracer,
                              std::vector<double>* late_ms) {
  Deck deck(spec.queries, seed);
  stm::Rng rng(seed ^ 0xa221'7a15ULL);
  std::vector<double> due_s;
  for (double t = 0.0;;) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / kOverloadRate;
    if (t >= seconds) break;
    due_s.push_back(t);
  }
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(due_s.size());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    late_ms->push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - due)
                           .count());
    const auto span = tracer.span("service.submit", i);
    futures.push_back(session.submit(make_request(deck.at(i), spec.deadline_ms)));
  }
  std::vector<Served> out;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult r = futures[i].get();
    const double latency = (*late_ms)[i] + r.total_ms;
    out.push_back({deck.at(i), i, due_s[i], latency, std::move(r)});
  }
  return out;
}

Report run_queries(const std::string& name, const QuerySpec& spec,
                   const Args& args, Tracer& tracer) {
  Report report;
  report.workload = name;
  fingerprint(args.work_dir, report);
  Setup setup = set_up(spec, tracer, report);
  stm::GraphSession& session = *setup.session;
  const auto snapshot = session.snapshot();

  double elapsed_s = args.seconds;
  std::vector<double> late_ms;
  const std::vector<Served> served =
      spec.clients > 0
          ? closed_loop(session, spec, args.seed, args.seconds, tracer,
                        &elapsed_s)
          : open_loop(session, spec, args.seed, args.seconds, tracer,
                      &late_ms);
  const double rss_mb = peak_rss_mb();

  // Correctness gate: one untimed single-threaded reference per pattern on
  // the snapshot every query ran against.
  std::vector<int> distinct;
  for (const int q : std::set<int>(spec.queries.begin(), spec.queries.end()))
    distinct.push_back(q);
  std::vector<RefTask> tasks;
  for (const int q : distinct) tasks.push_back({q, snapshot});
  const std::vector<Reference> refs = reference_counts(tasks, tracer);
  std::map<int, std::uint64_t> expected;
  for (std::size_t i = 0; i < distinct.size(); ++i)
    expected[distinct[i]] = refs[i].count;

  // Closed loops time and count the correct answers. The open loop times
  // every executed request (not shed) and counts as good the correct
  // answers within the deadline of their due time.
  const bool open = spec.clients == 0;
  std::vector<Sample> samples;
  std::vector<QueryResult> results;
  for (const Served& s : served) {
    if (s.result.graph_epoch != snapshot->epoch())
      report.fail("query ran at epoch " + std::to_string(s.result.graph_epoch));
    const std::uint64_t ok_before = report.ok;
    check_query(s.result, s.query, expected[s.query], report);
    const bool correct_ok = report.ok > ok_before;
    Sample sample{s.ticket, s.sent_s, s.latency_ms, correct_ok, correct_ok};
    if (open) {
      sample.timed = s.result.status != stm::QueryStatus::kOverloaded;
      if (correct_ok && s.latency_ms > kOverloadDeadlineMs) {
        sample.good = false;  // served, but late counted from its due time
        --report.ok;
        ++report.missed;
      }
    }
    samples.push_back(sample);
    results.push_back(s.result);
  }
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      report.attempted, 1));
  const double tail_pct = name == "hub_query" ? 90 : 99;
  const Windowed win = windowed(samples, spec.queries.size(),
                                open ? args.seconds : elapsed_s, tail_pct);

  report.e2e("setup_s", setup.setup_s, "s");
  report.e2e("peak_rss_mb", rss_mb, "MB");
  report.e2e("fail_frac", static_cast<double>(report.failed) / attempted,
             "ratio");
  report.gate("setup_s", setup.setup_s, "s");
  report.gate("peak_rss_mb", rss_mb, "MB");
  report.gate("p50_ms", win.p50_ms, "ms");
  report.gate("tail_ms", win.tail_ms, "ms");
  report.gate("throughput_per_s", win.rate_per_s, "1/s");
  if (name == "query_mix") {
    report.e2e("query_qps", win.rate_per_s, "1/s");
    report.e2e("query_p50_ms", win.p50_ms, "ms");
    report.e2e("query_p99_ms", win.tail_ms, "ms");
  } else if (name == "hub_query") {
    report.e2e("hub_qps", win.rate_per_s, "1/s");
    report.e2e("hub_p50_ms", win.p50_ms, "ms");
    report.e2e("hub_p90_ms", win.tail_ms, "ms");
  } else {
    report.e2e("overload_goodput_qps", win.rate_per_s, "1/s");
    report.e2e("overload_miss_frac",
               static_cast<double>(report.missed) / attempted, "ratio");
    report.e2e("overload_p50_ms", win.p50_ms, "ms");
    report.e2e("overload_p99_ms", win.tail_ms, "ms");
    report.e2e("generator_late_ms_p99", pct(late_ms, 99), "ms");
    report.info["offered_rate_per_s"] = std::to_string(kOverloadRate);
  }
  report.info["measured_s"] = std::to_string(elapsed_s);

  if (args.trace) {
    service_metrics(results, report);
    report.layer("graph.generate_ms", setup.generate_ms, "ms");
    report.layer("storage.decode_ops", setup.decode_ops_per_query, "count");
    probe_pattern(spec.queries, tracer, report);
    probe_core(*snapshot, distinct, refs, spec.eff_queries, tracer, report);
    probe_setops(*snapshot, tracer, report);
    probe_storage(*snapshot, tracer, report);
    probe_idle_update_path(session.graph(), args.seed, args.work_dir, tracer,
                           report);
  }
  return report;
}

}  // namespace

Report run_query_mix(const Args& args, Tracer& tracer) {
  QuerySpec spec;
  spec.queries = mix_queries();
  spec.cfg.max_concurrent_queries = 4;
  spec.cfg.host_threads_per_query = 1;
  spec.clients = 4;
  spec.deadline_ms = -1.0;
  spec.eff_queries = spec.queries;
  return run_queries("query_mix", spec, args, tracer);
}

Report run_query_overload(const Args& args, Tracer& tracer) {
  QuerySpec spec;
  spec.queries = range(1, 24);
  spec.cfg.max_concurrent_queries = 4;
  spec.cfg.max_queued_queries = 8;
  spec.cfg.default_deadline_ms = kOverloadDeadlineMs;
  spec.cfg.host_threads_per_query = 1;
  spec.clients = 0;
  spec.deadline_ms = 0.0;  // the session default
  // q17-q20 run 1-2 s each unbounded; the probe keeps to query_mix's set.
  spec.eff_queries = mix_queries();
  return run_queries("query_overload", spec, args, tracer);
}

Report run_hub_query(const Args& args, Tracer& tracer) {
  QuerySpec spec;
  spec.queries = {9, 10, 11, 18, 21};
  spec.cfg.host_threads_per_query = 4;
  spec.cfg.storage.backend = stm::storage::Backend::kCompressedBitset;
  spec.clients = 1;
  spec.deadline_ms = -1.0;
  spec.eff_queries = spec.queries;
  return run_queries("hub_query", spec, args, tracer);
}

}  // namespace perfbench
