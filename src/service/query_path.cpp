#include "service/query_path.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.hpp"
#include "service/update_path.hpp"

namespace stm {

namespace {

/// Degradation order per requested engine. The chain starts with the
/// requested engine itself; every later entry trades performance for
/// independence from the failing machinery (the reference enumerator shares
/// no candidate-set code with either optimized engine).
std::vector<EngineKind> fallback_chain(EngineKind requested, bool fallback) {
  std::vector<EngineKind> chain{requested};
  if (fallback && requested == EngineKind::kSimt)
    chain.push_back(EngineKind::kHost);
  if (fallback && requested != EngineKind::kReference)
    chain.push_back(EngineKind::kReference);
  return chain;
}

}  // namespace

struct QueryPath::QueryJob {
  QueryRequest req;
  std::promise<QueryResult> promise;
  std::shared_ptr<CancelToken> token;
  double deadline_ms = 0.0;  // effective budget (effective_deadline_ms)
  Timer since_submit;  // started at submission; queue wait + total latency
};

QueryPath::QueryPath(const MutableGraph& graph, const SessionConfig& cfg,
                     PlanCache& plans, MetricsRegistry& metrics,
                     AdmissionController& admission, UpdatePath& updates)
    : graph_(graph),
      cfg_(cfg),
      plans_(plans),
      metrics_(metrics),
      admission_(admission),
      updates_(updates),
      watchdog_(cfg.resilience.watchdog_stall_ms,
                cfg.resilience.watchdog_poll_ms,
                &metrics.counter("watchdog_kills",
                                 "Queries force-failed for stalled progress")) {
  for (std::size_t k = 0; k < kNumEngineKinds; ++k) {
    breakers_[k] = CircuitBreaker(cfg_.resilience.breaker);
    breaker_state_gauges_[k] = &metrics.gauge(
        std::string("breaker_state_") + to_string(static_cast<EngineKind>(k)),
        "Circuit state (0=closed, 1=open, 2=half-open)");
  }
}

void QueryPath::start(const std::shared_ptr<CancelToken>& token) {
  queries_submitted_.inc();
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.insert(token);
}

void QueryPath::settle(const std::shared_ptr<CancelToken>& token,
                       const QueryResult& result) {
  if (result.status == QueryStatus::kOverloaded) {
    queries_rejected_.inc();
  } else {
    (result.ok() ? queries_completed_ : queries_failed_).inc();
  }
  faults_injected_total_.inc(result.stats.faults_injected);
  recovery_units_total_.inc(result.stats.units_recovered);
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.erase(token);
}

QueryResult QueryPath::refused(EngineKind engine, QueryStatus status,
                               std::string error) {
  QueryResult r;
  r.status = r.stats.status = status;
  r.served_by = engine;
  r.attempts = 0;
  r.error = std::move(error);
  return r;
}

std::future<QueryResult> QueryPath::submit(QueryRequest req) {
  auto job = std::make_shared<QueryJob>();
  job->req = std::move(req);
  job->token = std::make_shared<CancelToken>();
  std::future<QueryResult> future = job->promise.get_future();

  // The deadline covers the query's whole life, queue wait included: a
  // request that waits past its budget is interrupted as soon as it starts.
  job->deadline_ms = effective_deadline_ms(job->req.deadline_ms);
  if (job->deadline_ms > 0.0) job->token->set_deadline_ms(job->deadline_ms);
  start(job->token);

  if (!admission_.admit(job->req.priority, [this, job] { execute(*job); })) {
    QueryResult rejected = refused(job->req.engine, QueryStatus::kOverloaded,
                                   admission_.rejection());
    rejected.total_ms = job->since_submit.elapsed_ms();
    settle(job->token, rejected);
    job->promise.set_value(std::move(rejected));
    return future;
  }
  queries_admitted_.inc();
  queue_depth_.set(static_cast<double>(admission_.queue_depth()));
  return future;
}

std::string QueryPath::failure_detail(const QueryResult& r, double deadline_ms,
                                      bool stream) {
  const std::string partial =
      stream ? " (the delivered embeddings are a valid prefix of the stream)"
             : " (count is partial)";
  const std::string subject = stream ? "stream" : "query";
  switch (r.status) {
    case QueryStatus::kDeadlineExceeded:
      return "deadline of " + std::to_string(deadline_ms) + " ms exhausted" +
             partial;
    case QueryStatus::kCancelled:
      return subject + " cancelled" + partial;
    case QueryStatus::kInternalError:
      return subject + " execution failed after " +
             std::to_string(r.attempts) +
             " attempt(s); recovery budget exhausted or progress stalled" +
             partial;
    default:
      return subject + " failed: " + to_string(r.status);
  }
}

double QueryPath::effective_deadline_ms(double requested) const {
  return requested == 0.0 ? cfg_.default_deadline_ms : requested;
}

HostEngineConfig QueryPath::host_config(
    const HostEngineConfig& requested) const {
  HostEngineConfig host = requested;
  if (host.num_threads == 0) {
    host.num_threads = std::max<std::size_t>(1, cfg_.host_threads_per_query);
  }
  return host;
}

void QueryPath::cancel_all() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (const auto& token : active_tokens_) token->cancel();
}

CircuitBreaker::State QueryPath::breaker_state(EngineKind kind) {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  return breakers_[static_cast<std::size_t>(kind)].state();
}

std::shared_ptr<const dist::ShardedMatcher> QueryPath::sharded_matcher(
    EngineKind kind, const QueryRequest& req) {
  std::string key = std::string(to_string(kind)) + '|' +
                    std::to_string(static_cast<int>(req.plan.induced)) +
                    std::to_string(static_cast<int>(req.plan.count_mode)) +
                    '|' + req.pattern.to_string();
  {
    std::lock_guard<std::mutex> lock(shard_matchers_mu_);
    auto it = shard_matchers_.find(key);
    if (it != shard_matchers_.end()) return it->second;
  }
  dist::ShardedOptions opts;
  opts.plan = req.plan;
  opts.local_engine = kind;
  opts.anchor_engine =
      kind == EngineKind::kSimt ? DeltaEngine::kSimt : DeltaEngine::kHost;
  // One engine thread per scheduler unit: cross-shard parallelism comes from
  // the shard scheduler's workers, not from nested host threads. Per-request
  // engine knobs (req.host / req.simt) do not reach the sharded path — the
  // session's ShardingConfig governs it, which keeps cached coordinators
  // valid across requests.
  opts.host.num_threads = 1;
  opts.num_workers = cfg_.sharding.num_workers;
  opts.cut_chunk_size = cfg_.sharding.cut_chunk_size;
  opts.fault = cfg_.sharding.fault;
  auto matcher =
      std::make_shared<const dist::ShardedMatcher>(req.pattern, opts);
  std::lock_guard<std::mutex> lock(shard_matchers_mu_);
  return shard_matchers_.emplace(std::move(key), std::move(matcher))
      .first->second;
}

QueryResult QueryPath::run_attempt(EngineKind kind, const QueryRequest& req,
                                   const MatchingPlan& plan,
                                   const GraphSnapshot& snap,
                                   const CancelToken& token,
                                   std::uint32_t attempt) {
  QueryResult result;
  try {
    // kReference stays unsharded on purpose: it is the fallback of last
    // resort and must not share failure modes with the coordinator.
    const bool shardable = cfg_.sharding.enabled() &&
                           kind != EngineKind::kReference &&
                           req.plan.induced == Induced::kEdge;
    const auto state = shardable ? updates_.partition() : nullptr;
    // The coordinator must run on the exact graph version its partition was
    // built from; a query racing an update's partition refresh falls back
    // to the unsharded path for its pinned snapshot instead.
    if (state != nullptr && state->snapshot->epoch() == snap.epoch()) {
      // The partition's snapshot can predate a compact() (same epoch, its
      // own backend), so it needs its own lease.
      const auto shard_lease = state->snapshot->storage_lease();
      const dist::ShardedResult r = sharded_matcher(kind, req)->match(
          state->snapshot->view(), *state->partition, plan, attempt, &token);
      sharded_queries_.inc();
      shard_chunk_steals_.inc(r.chunk_steals);
      result.count = r.count;
      for (const dist::ShardStats& st : r.shards) result.stats += st.query;
      // r's totals also cover the anchored chunks and the coordinator's own
      // injector; they supersede the per-shard sums.
      result.stats.faults_injected = r.faults_injected;
      result.stats.units_recovered = r.units_recovered;
      result.stats.status = result.status = r.status;
      result.error = r.error;
      return result;
    }
    // A fresh fault incarnation per attempt: the injected-failure schedule
    // is a pure function of (seed, incarnation, site, key), so transient
    // faults clear deterministically on retry instead of repeating forever.
    HostEngineConfig host = host_config(req.host);
    host.fault.incarnation += attempt;
    EngineConfig simt = req.simt;
    simt.fault.incarnation += attempt;
    const EngineRun r = run_engine(kind, snap.view(), req.pattern, plan, host,
                                   simt, &token);
    result.count = r.count;
    result.stats = r.stats;
    result.status = r.stats.status;
  } catch (...) {
    // Engine-call boundary (DESIGN.md §9): a throwing engine must not take
    // down the dispatcher thread or strand the admission slot.
    Failure failure =
        escaped_failure(std::string("engine ") + to_string(kind) + " threw");
    result = QueryResult{};
    result.status = result.stats.status = failure.status;
    result.error = std::move(failure.error);
  }
  return result;
}

QueryResult QueryPath::execute_resilient(
    const QueryRequest& req, const MatchingPlan& plan, const GraphSnapshot& snap,
    const std::shared_ptr<CancelToken>& token) {
  const ResilienceConfig& res = cfg_.resilience;
  const std::vector<EngineKind> chain =
      fallback_chain(req.engine, res.enable_fallback);
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, res.retry.max_attempts);

  QueryResult last;
  last.status = last.stats.status = QueryStatus::kInternalError;
  last.served_by = req.engine;
  std::uint32_t total_attempts = 0;
  std::uint64_t faults_sum = 0;
  std::uint64_t units_sum = 0;

  auto finalize = [&](QueryResult r) {
    r.attempts = total_attempts;
    r.stats.faults_injected = faults_sum;
    r.stats.units_recovered = units_sum;
    return r;
  };

  for (EngineKind kind : chain) {
    const auto idx = static_cast<std::size_t>(kind);
    bool allowed;
    {
      std::lock_guard<std::mutex> lock(breakers_mu_);
      const double elapsed = breaker_clock_.elapsed_ms();
      breaker_clock_.reset();
      for (auto& b : breakers_) b.tick_ms(elapsed);
      allowed = breakers_[idx].allow();
      breaker_state_gauges_[idx]->set(
          static_cast<double>(breakers_[idx].state()));
    }
    if (!allowed) {
      // Open circuit: skip straight to the next engine in the chain rather
      // than burning the query's budget on a path that keeps failing.
      breaker_skips_.inc();
      continue;
    }
    if (kind != req.engine) engine_fallbacks_.inc();

    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (token->expired()) {
        // The token is burned (deadline, cancel or watchdog kill): no
        // engine call can succeed anymore.
        QueryResult dead;
        dead.status = dead.stats.status = token->status();
        dead.served_by = kind;
        dead.degraded = kind != req.engine;
        return finalize(std::move(dead));
      }
      if (attempt > 0) {
        engine_retries_.inc();
        const double delay_ms =
            res.retry.backoff_ms(attempt, static_cast<std::uint64_t>(kind));
        if (delay_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
        }
      }
      ++total_attempts;
      QueryResult r = run_attempt(kind, req, plan, snap, *token, attempt);
      faults_sum += r.stats.faults_injected;
      units_sum += r.stats.units_recovered;
      r.served_by = kind;
      r.degraded = kind != req.engine;

      const bool failure = r.status == QueryStatus::kInternalError;
      {
        std::lock_guard<std::mutex> lock(breakers_mu_);
        if (failure) {
          breakers_[idx].record_failure();
        } else {
          breakers_[idx].record_success();
        }
        breaker_state_gauges_[idx]->set(
            static_cast<double>(breakers_[idx].state()));
      }
      if (!failure) {
        // kOk, but also kInvalidArgument / kDeadlineExceeded / kCancelled:
        // all terminal. Retrying an invalid query would mask the caller's
        // bug; a burned token cannot be un-burned.
        return finalize(std::move(r));
      }
      last = std::move(r);
    }
  }
  return finalize(std::move(last));
}

void QueryPath::execute(QueryJob& job) {
  QueryResult result;
  const double queue_ms = job.since_submit.elapsed_ms();
  queue_wait_ms_.observe(queue_ms);
  queue_depth_.set(static_cast<double>(admission_.queue_depth()));
  inflight_.add(1.0);
  watchdog_.watch(job.token);

  try {
    bool cache_hit = false;
    // Skip plan work for queries that died in the queue.
    if (job.token->expired()) {
      result.status = result.stats.status = job.token->status();
      result.served_by = job.req.engine;
      result.attempts = 0;
    } else {
      // Pin the graph version for the query's whole life: plan compilation,
      // retries and fallbacks all see one consistent snapshot even while a
      // writer publishes newer epochs concurrently.
      const std::shared_ptr<const GraphSnapshot> snap = graph_.snapshot();
      // Neighbor spans a compressed backend hands out stay valid while this
      // lease is held (the decode cache cannot be trimmed under the query).
      const auto storage_lease = snap->storage_lease();
      auto plan = plans_.get_or_compile(job.req.pattern, job.req.plan,
                                        &cache_hit);
      result = execute_resilient(job.req, *plan, *snap, job.token);
      result.plan_cache_hit = cache_hit;
      result.graph_epoch = snap->epoch();
    }
    cache_hit_rate_.set(plans_.stats().hit_rate());
  } catch (...) {
    // Last line of defense (DESIGN.md §9): nothing may escape into the
    // dispatcher pool, where it would std::terminate the process.
    Failure failure = escaped_failure("query execution threw");
    result = QueryResult{};
    result.status = result.stats.status = failure.status;
    result.error = std::move(failure.error);
  }
  watchdog_.unwatch(job.token);

  // Every non-kOk result carries a human-readable detail string.
  if (!result.ok() && result.error.empty()) {
    result.error = failure_detail(result, job.deadline_ms, /*stream=*/false);
  }

  result.queue_ms = queue_ms;
  result.total_ms = job.since_submit.elapsed_ms();
  latency_ms_.observe(result.total_ms);
  inflight_.add(-1.0);
  if (result.degraded && result.ok()) queries_degraded_.inc();
  matches_total_.inc(result.count);
  engine_scalar_ops_.inc(result.stats.scalar_ops);
  engine_steals_total_.inc(result.stats.steals);
  updates_.refresh_storage_metrics();  // the query's lease is released now
  settle(job.token, result);
  job.promise.set_value(std::move(result));
}

}  // namespace stm
