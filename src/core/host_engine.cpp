#include "core/host_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/recursive.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

namespace {

/// An outer-loop chunk in flight: the unit of fault decisions, emission
/// buckets and retries. The claiming worker runs it as one level-0 piece;
/// pieces stolen from it report back here, and the last piece to settle
/// decides the chunk's fate. `attempts` counts failures of this unit;
/// decisions are keyed by (begin, attempts), so a retry can succeed.
struct Chunk {
  VertexId begin = 0;
  VertexId end = 0;
  std::uint32_t attempts = 0;
  bool emitting = false;
  std::atomic<std::uint32_t> open{1};  // pieces not yet settled
  std::atomic<std::uint64_t> count{0};
  std::mutex mu;  // guards staged and merged
  std::vector<Embedding> staged;
  bool merged = false;  // staged holds more than one piece's batch
};

struct Task {
  std::shared_ptr<Chunk> chunk;
  RecursivePiece piece;
};

/// A failed chunk waiting for re-execution. Its partial count was
/// discarded, so re-running it from scratch keeps the total exact.
struct RetryChunk {
  VertexId begin = 0;
  VertexId end = 0;
  std::uint32_t attempts = 0;
};

/// One worker's published remaining-work key (see WorkDonor), on its own
/// cache line: written only while some worker asks for work.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> key{0};
};

/// Work shared by the workers of one host_match call.
struct WorkQueues {
  WorkQueues(VertexId first, std::size_t threads)
      : cursor(first), slots(threads) {}

  std::mutex mu;  // guards cursor, tasks, retry and busy
  std::condition_variable idle;  // a waiting worker may have work or be done
  VertexId cursor;               // next fresh outer-loop vertex
  std::deque<Task> tasks;        // stolen pieces
  std::deque<RetryChunk> retry;  // failed chunks awaiting re-execution
  std::size_t busy = 0;          // workers holding a task
  /// Workers waiting for a piece minus pieces queued; a running piece polls
  /// it and donates while it is positive.
  std::atomic<int> requests{0};
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> steals{0};
};

/// Donates to the queues on behalf of worker `self`. The busiest worker
/// (largest key) claims one outstanding request; equal keys may both claim,
/// which at most queues a spare piece for the next idle worker.
class Donor final : public WorkDonor {
 public:
  Donor(WorkQueues& q, std::size_t self)
      : WorkDonor(q.requests), q_(q), self_(self) {}

  bool offer(std::uint64_t key) override {
    q_.slots[self_].key.store(key, std::memory_order_relaxed);
    if (key == 0) return false;
    for (std::size_t t = 0; t < q_.slots.size(); ++t)
      if (t != self_ && q_.slots[t].key.load(std::memory_order_relaxed) > key)
        return false;
    int want = q_.requests.load(std::memory_order_relaxed);
    while (want > 0)
      if (q_.requests.compare_exchange_weak(want, want - 1,
                                            std::memory_order_relaxed))
        return true;
    return false;
  }

  void give(RecursivePiece piece) override {
    chunk->open.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(q_.mu);
      q_.tasks.push_back({chunk, std::move(piece)});
    }
    q_.idle.notify_one();
    q_.steals.fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<Chunk> chunk;  // the chunk of the running piece

 private:
  WorkQueues& q_;
  const std::size_t self_;
};

}  // namespace

HostMatchResult host_match(GraphView g, const MatchingPlan& plan,
                           const HostEngineConfig& cfg,
                           const CancelToken* cancel, EmbeddingSink* sink) {
  STM_CHECK(cfg.chunk_size >= 1);
  std::optional<FaultInjector> injector;
  if (cfg.fault.enabled()) {
    STM_CHECK(cfg.fault.max_unit_attempts >= 1);
    injector.emplace(cfg.fault);
    if (injector->should_fail(FaultSite::kEngineThrow, 0)) {
      throw FaultInjectedError("injected fault: host engine call failed");
    }
  }
  std::size_t threads = cfg.num_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const VertexId n = g.num_vertices();
  // Emission is disabled for the rest of the run once the sink reports the
  // stream aborted/failed; counting continues unaffected.
  std::atomic<bool> emit_stop{false};
  if (sink != nullptr) {
    const std::uint64_t num_buckets =
        cfg.v_begin >= n
            ? 0
            : (static_cast<std::uint64_t>(n - cfg.v_begin) + cfg.chunk_size -
               1) /
                  cfg.chunk_size;
    sink->begin(num_buckets);
  }
  std::atomic<bool> interrupted{false};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<std::uint64_t> units_recovered{0};
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<RecursiveCounters> counters(threads);
  WorkQueues q(cfg.v_begin, threads);

  // A worker that throws (e.g. a fail-closed storage decode: an exhausted
  // spill-page retry budget surfaces as check_error from neighbors()) must
  // not take the process down. The first exception is captured, every other
  // worker is stopped, and the caller's thread rethrows after the join — so
  // the service's engine-call boundary sees it like any single-threaded
  // engine throw.
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker = [&](std::size_t t) {
    try {
      CancelPoller poller(cancel);
      // Private until the worker exits: the executor bumps these per
      // iteration, and neighbouring slots of `counters` share cache lines.
      RecursiveCounters mine;
      Donor donor(q, t);
      // Completed buckets not yet accepted by the sink. A worker never parks
      // on backpressure while work may remain (a blocked worker could be the
      // only one able to run the piece or retry chunk that holds the release
      // head); it blocking-flushes only on exit, in ascending bucket order so
      // the head-exemption guarantees progress.
      std::vector<std::pair<std::uint64_t, std::vector<Embedding>>> pending;
      auto flush_pending = [&](bool blocking) {
        if (pending.empty()) return;
        if (emit_stop.load(std::memory_order_relaxed)) {
          pending.clear();
          return;
        }
        std::sort(pending.begin(), pending.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        std::size_t done = 0;
        for (; done < pending.size(); ++done) {
          auto& [bucket, batch] = pending[done];
          if (blocking) {
            if (!sink->post(bucket, std::move(batch))) {
              emit_stop.store(true, std::memory_order_relaxed);
              pending.clear();
              return;
            }
          } else {
            const auto r = sink->try_post(bucket, batch);
            if (r == EmbeddingSink::TryPost::kWouldBlock) break;
            if (r == EmbeddingSink::TryPost::kAborted) {
              emit_stop.store(true, std::memory_order_relaxed);
              pending.clear();
              return;
            }
          }
        }
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(done));
      };
      auto new_chunk = [&](VertexId begin, VertexId end,
                           std::uint32_t attempts) {
        auto c = std::make_shared<Chunk>();
        c->begin = begin;
        c->end = end;
        c->attempts = attempts;
        c->emitting =
            sink != nullptr && !emit_stop.load(std::memory_order_relaxed);
        RecursivePiece piece;
        piece.begin = begin;
        piece.end = end;
        return Task{std::move(c), std::move(piece)};
      };
      // Next task in priority order: a stolen piece (finishes a chunk
      // already in flight), a retry chunk, a fresh chunk. With none left the
      // worker asks for a donation and waits; it returns false once nothing
      // is queued or running, or when the run stops or is interrupted.
      auto next_task = [&](Task& task) {
        bool waiting = false;
        std::unique_lock<std::mutex> lock(q.mu);
        for (;;) {
          if (!q.tasks.empty()) {
            task = std::move(q.tasks.front());
            q.tasks.pop_front();
            ++q.busy;
            // One piece fewer queued; if this worker was waiting, also one
            // waiter fewer, which cancels out.
            if (!waiting) q.requests.fetch_add(1, std::memory_order_relaxed);
            return true;
          }
          if (!q.retry.empty()) {
            const RetryChunk r = q.retry.front();
            q.retry.pop_front();
            ++q.busy;
            if (waiting) q.requests.fetch_sub(1, std::memory_order_relaxed);
            task = new_chunk(r.begin, r.end, r.attempts);
            return true;
          }
          if (q.cursor < n) {
            const VertexId begin = q.cursor;
            q.cursor = n - q.cursor <= cfg.chunk_size ? n
                                                   : q.cursor + cfg.chunk_size;
            ++q.busy;
            if (waiting) q.requests.fetch_sub(1, std::memory_order_relaxed);
            task = new_chunk(begin, q.cursor, 0);
            return true;
          }
          if (q.busy == 0 ||
              budget_exhausted.load(std::memory_order_relaxed)) {
            if (waiting) q.requests.fetch_sub(1, std::memory_order_relaxed);
            return false;
          }
          if (!waiting) {
            waiting = true;
            q.requests.fetch_add(1, std::memory_order_relaxed);
          }
          lock.unlock();
          if (poller.fired_now()) {
            // Work is still queued or running elsewhere: the count is
            // partial.
            interrupted.store(true, std::memory_order_relaxed);
            q.requests.fetch_sub(1, std::memory_order_relaxed);
            return false;
          }
          if (sink != nullptr) flush_pending(/*blocking=*/false);
          lock.lock();
          // Woken by a donation, a retry or the last busy worker; the
          // timeout bounds the latency of cancellation, stops and flushes.
          q.idle.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return !q.tasks.empty() || !q.retry.empty() || q.busy == 0;
          });
        }
      };
      auto release = [&](std::optional<RetryChunk> failed) {
        bool wake;
        {
          std::lock_guard<std::mutex> lock(q.mu);
          if (failed.has_value()) q.retry.push_back(*failed);
          --q.busy;
          wake = failed.has_value() || q.busy == 0;
        }
        if (wake) q.idle.notify_all();
      };
      // The last piece of a chunk settled: decide the chunk's fate and post
      // its bucket. Returns the chunk to re-run when its task failed.
      auto settle = [&](Chunk& c) -> std::optional<RetryChunk> {
        if (injector.has_value() &&
            injector->should_fail(
                FaultSite::kHostTask,
                (static_cast<std::uint64_t>(c.begin) << 16) | c.attempts)) {
          // The task died: the partial count and staged embeddings of every
          // piece are discarded and the whole chunk re-enqueued, so the
          // final total and the stream both stay exact.
          const std::uint32_t attempts = c.attempts + 1;
          if (attempts < cfg.fault.max_unit_attempts)
            return RetryChunk{c.begin, c.end, attempts};
          budget_exhausted.store(true, std::memory_order_relaxed);
          return std::nullopt;
        }
        counts[t] += c.count.load(std::memory_order_relaxed);
        if (c.attempts > 0)
          units_recovered.fetch_add(1, std::memory_order_relaxed);
        // Post only chunks that enumerated to completion: a token that
        // fired mid-chunk leaves `staged` a prefix of the bucket, which must
        // not enter the stream (the drained prefix would no longer be
        // bucket-aligned and thus not reproducible).
        if (c.emitting && (cancel == nullptr || !cancel->expired())) {
          // Pieces append in completion order; restore DFS order
          // (lexicographic over plan-position tuples).
          if (c.merged) std::sort(c.staged.begin(), c.staged.end());
          pending.emplace_back((c.begin - cfg.v_begin) / cfg.chunk_size,
                               std::move(c.staged));
          flush_pending(/*blocking=*/false);
        }
        return std::nullopt;
      };

      WorkDonor* const donate_to = threads > 1 ? &donor : nullptr;
      std::vector<Embedding> staged;
      const EmbeddingVisitor visit =
          [&staged](const std::vector<VertexId>& mapping) {
            staged.push_back(mapping);
            return true;
          };
      for (;;) {
        if (poller.fired_now()) {
          // Fired while this worker still had the loop to run: the count is
          // (potentially) partial.
          interrupted.store(true, std::memory_order_relaxed);
          break;
        }
        if (budget_exhausted.load(std::memory_order_relaxed)) break;
        Task task;
        if (!next_task(task)) break;
        Chunk& c = *task.chunk;
        donor.chunk = task.chunk;
        const std::uint64_t found = recursive_run_piece(
            g, plan, std::move(task.piece), c.emitting ? &visit : nullptr,
            &mine, cancel, donate_to);
        q.slots[t].key.store(0, std::memory_order_relaxed);
        c.count.fetch_add(found, std::memory_order_relaxed);
        if (!staged.empty()) {
          std::lock_guard<std::mutex> lock(c.mu);
          if (c.staged.empty()) {
            c.staged.swap(staged);
          } else {
            c.staged.insert(c.staged.end(),
                            std::make_move_iterator(staged.begin()),
                            std::make_move_iterator(staged.end()));
            c.merged = true;
          }
          staged.clear();
        }
        std::optional<RetryChunk> failed;
        if (c.open.fetch_sub(1, std::memory_order_acq_rel) == 1)
          failed = settle(c);
        release(failed);
        if (cancel != nullptr) cancel->report_progress();
      }
      counters[t] = mine;
      if (sink != nullptr) flush_pending(/*blocking=*/true);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Stop the other workers promptly (same flag the attempt-budget
      // exhaustion uses) and disable emission so their exit flushes drop
      // instead of blocking on a stream that can no longer complete.
      budget_exhausted.store(true, std::memory_order_relaxed);
      emit_stop.store(true, std::memory_order_relaxed);
    }
  };

  Timer timer;
  {
    // The caller runs the last worker itself, so a single-threaded query
    // creates no thread at all.
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 0; t + 1 < threads; ++t) helpers.emplace_back(worker, t);
    worker(threads - 1);
    for (auto& h : helpers) h.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  HostMatchResult result;
  result.stats.engine_ms = timer.elapsed_ms();
  if (budget_exhausted.load(std::memory_order_relaxed)) {
    result.stats.status = QueryStatus::kInternalError;
  } else if (interrupted.load(std::memory_order_relaxed)) {
    result.stats.status = cancel->status();
  }
  for (std::size_t t = 0; t < threads; ++t) {
    result.count += counts[t];
    result.stats.scalar_ops += counters[t].scalar_ops;
    result.stats.sets_built += counters[t].sets_built;
  }
  result.stats.steals = q.steals.load(std::memory_order_relaxed);
  if (injector.has_value()) {
    result.stats.faults_injected = injector->total_injected();
    result.stats.units_recovered =
        units_recovered.load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace stm
