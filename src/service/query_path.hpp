// The read side of GraphSession (DESIGN.md §8, §9, §12). A count query runs
//
//   submit ──► admission ──► [queue] ──► plan cache ──► retry / breaker /
//          fallback ──► run_attempt (run_engine or the sharded coordinator)
//
// under a CancelToken armed at submission (queue wait burns the deadline).
// A transient failure (kInternalError, or an escaped exception) is retried
// with a fresh fault incarnation, then the fallback chain (kSimt → kHost →
// kReference) serves it `degraded`; per-engine breakers skip engines that
// keep failing, and the watchdog kills queries whose progress stalls.
// Streams (stream.cpp) share the request accounting. The path owns the
// breakers, watchdog, token registry, shard-matcher cache, open streams and
// query metrics.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "core/cancel.hpp"
#include "core/host_engine.hpp"
#include "core/run.hpp"
#include "dist/sharded.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "service/admission.hpp"
#include "service/metrics.hpp"
#include "service/plan_cache.hpp"
#include "service/resilience.hpp"
#include "service/watchdog.hpp"
#include "util/timer.hpp"

namespace stm {

struct SessionConfig;
struct QueryRequest;
struct QueryResult;
struct StreamRequest;
class EmbeddingStream;
class UpdatePath;

class QueryPath {
 public:
  /// Reads the partition and refreshes the storage gauges via `updates`.
  QueryPath(const MutableGraph& graph, const SessionConfig& cfg,
            PlanCache& plans, MetricsRegistry& metrics,
            AdmissionController& admission, UpdatePath& updates);
  /// Aborts and settles the streams still open (stream.cpp): their producers
  /// and finalizers touch this path; surviving handles see only their state.
  ~QueryPath();

  std::future<QueryResult> submit(QueryRequest req);
  std::unique_ptr<EmbeddingStream> open_stream(StreamRequest req);
  void cancel_all();
  CircuitBreaker::State breaker_state(EngineKind kind);

 private:
  friend class EmbeddingStream;

  struct QueryJob;
  /// Everything one embedding stream owns (defined in stream.cpp). Shared
  /// between the handle, the producer thread, and the live-stream registry.
  struct StreamState;

  /// Request accounting for count queries and streams. start() counts a
  /// submission and registers its token with cancel_all(); the caller
  /// counts the admission. settle() counts the terminal result (kOverloaded
  /// as rejected, else completed or failed) and unregisters the token, so
  /// submitted == admitted + rejected and admitted == completed + failed.
  /// It also folds the result's fault and recovery totals into the metrics.
  void start(const std::shared_ptr<CancelToken>& token);
  void settle(const std::shared_ptr<CancelToken>& token,
              const QueryResult& result);
  /// The terminal result of a request that never reached an engine.
  static QueryResult refused(EngineKind engine, QueryStatus status,
                             std::string error);
  /// Detail text for a non-kOk query or stream result that carries none.
  static std::string failure_detail(const QueryResult& r, double deadline_ms,
                                    bool stream);
  /// A request's deadline_ms, or the session default when it asks for 0.
  double effective_deadline_ms(double requested) const;
  /// `requested` with num_threads = 0 clamped to host_threads_per_query.
  HostEngineConfig host_config(const HostEngineConfig& requested) const;

  void execute(QueryJob& job);
  /// Retry + breaker + fallback-chain walk around run_attempt.
  QueryResult execute_resilient(const QueryRequest& req,
                                const MatchingPlan& plan,
                                const GraphSnapshot& snap,
                                const std::shared_ptr<CancelToken>& token);
  /// One engine call on `kind`, exceptions contained (escaped_failure): the
  /// cross-shard coordinator when the session is sharded, `kind` is kSimt or
  /// kHost, the query is edge-induced and the partition was built from
  /// `snap`; run_engine with a fresh fault incarnation otherwise.
  QueryResult run_attempt(EngineKind kind, const QueryRequest& req,
                          const MatchingPlan& plan, const GraphSnapshot& snap,
                          const CancelToken& token, std::uint32_t attempt);
  /// Cached cross-shard coordinator for the request's pattern/options.
  std::shared_ptr<const dist::ShardedMatcher> sharded_matcher(
      EngineKind kind, const QueryRequest& req);

  /// Producer-thread body of a stream: the engine in emission mode on the
  /// pinned snapshot, then the sequencer's terminal status.
  void run_stream(const std::shared_ptr<StreamState>& st);
  /// One-shot stream teardown (once-flag): joins the producer, assembles the
  /// QueryResult, settles the accounting and releases the stream slot.
  static void finalize_stream(const std::shared_ptr<StreamState>& st);
  /// A handle whose stream is already terminal (bad request, overload,
  /// shutdown). Only kOverloaded counts as rejected; every other refusal
  /// counts as admitted and failed, like an invalid count query.
  std::unique_ptr<EmbeddingStream> refuse_stream(
      std::shared_ptr<StreamState> st, QueryStatus status, std::string error);

  const MutableGraph& graph_;
  const SessionConfig& cfg_;
  PlanCache& plans_;
  MetricsRegistry& metrics_;
  AdmissionController& admission_;
  UpdatePath& updates_;

  /// Coordinators are pattern-analysis-heavy (one anchored plan per pattern
  /// edge); cache them keyed by pattern + semantics + engine kind.
  std::mutex shard_matchers_mu_;
  std::map<std::string, std::shared_ptr<const dist::ShardedMatcher>>
      shard_matchers_;

  std::mutex tokens_mu_;
  std::unordered_set<std::shared_ptr<CancelToken>> active_tokens_;

  /// Open embedding streams (slot accounting + the destructor's sweep).
  std::mutex streams_mu_;
  std::unordered_set<std::shared_ptr<StreamState>> live_streams_;
  bool shutting_down_ = false;  // guarded by streams_mu_

  // Cached metric handles (registry entries have stable addresses).
  Counter& queries_submitted_ = metrics_.counter(
      "queries_submitted", "Queries received (admitted + rejected)");
  Counter& queries_admitted_ =
      metrics_.counter("queries_admitted", "Queries accepted for execution");
  Counter& queries_rejected_ = metrics_.counter(
      "queries_rejected", "Queries shed at admission (overload)");
  Counter& queries_completed_ =
      metrics_.counter("queries_completed", "Queries finished with ok");
  Counter& queries_failed_ = metrics_.counter(
      "queries_failed",
      "Queries finished non-ok (deadline, cancel, invalid, internal)");
  Counter& queries_degraded_ = metrics_.counter(
      "queries_degraded", "Queries served by a fallback engine");
  Counter& engine_retries_ = metrics_.counter(
      "engine_retries", "Engine calls re-issued after kInternalError");
  Counter& engine_fallbacks_ = metrics_.counter(
      "engine_fallbacks", "Fallback-chain hops past the requested engine");
  Counter& breaker_skips_ = metrics_.counter(
      "breaker_skips", "Engine calls skipped by an open circuit breaker");
  Counter& faults_injected_total_ = metrics_.counter(
      "faults_injected_total", "Injected faults observed across queries");
  Counter& recovery_units_total_ = metrics_.counter(
      "recovery_units_total", "Work units recovered after injected faults");
  Counter& matches_total_ =
      metrics_.counter("matches_total", "Embeddings counted across queries");
  Counter& engine_scalar_ops_ = metrics_.counter(
      "engine_scalar_ops", "Scalar set-operation work across queries");
  Counter& engine_steals_total_ = metrics_.counter(
      "engine_steals_total",
      "Work pieces moved between engine workers across queries");
  Counter& sharded_queries_ = metrics_.counter(
      "sharded_queries", "Queries served by the cross-shard coordinator");
  Counter& shard_chunk_steals_ = metrics_.counter(
      "shard_chunk_steals",
      "Sharded work units run by a foreign shard's worker");
  Counter& stream_emitted_total_ = metrics_.counter(
      "stream_emitted_total",
      "Embeddings emitted into stream sequencers (pre-limit)");
  Gauge& inflight_ =
      metrics_.gauge("inflight_queries", "Queries executing now");
  Gauge& queue_depth_ =
      metrics_.gauge("queue_depth", "Queries waiting to start");
  Gauge& cache_hit_rate_ = metrics_.gauge(
      "plan_cache_hit_rate", "Fraction of plan lookups served cached");
  Gauge& open_streams_ =
      metrics_.gauge("open_streams", "Embedding streams open now");
  Histogram& latency_ms_ = metrics_.histogram(
      "query_latency_ms", "Submission-to-completion latency");
  Histogram& queue_wait_ms_ =
      metrics_.histogram("queue_wait_ms", "Admission-to-execution wait");
  Histogram& stream_backpressure_ms_ = metrics_.histogram(
      "stream_backpressure_ms",
      "Producer wall time blocked on stream backpressure, per stream");

  // One breaker per engine kind, guarded by breakers_mu_ (engine calls run
  // outside the lock; only the state transitions are serialized). The
  // breakers run on injected virtual time: breaker_clock_ measures the wall
  // time between consultations and feeds it to tick_ms().
  std::mutex breakers_mu_;
  std::array<CircuitBreaker, kNumEngineKinds> breakers_;
  std::array<Gauge*, kNumEngineKinds> breaker_state_gauges_{};
  Timer breaker_clock_;

  Watchdog watchdog_;
};

}  // namespace stm
