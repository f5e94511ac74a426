#include "service/stream.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <queue>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/run.hpp"
#include "pattern/matching_order.hpp"
#include "stream/emit.hpp"
#include "stream/sequencer.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

namespace {

/// Identifies the (pattern, plan options) a resume token was issued for.
/// FNV-1a over the canonical pattern string plus the option bytes — stable
/// across sessions, engine-independent (the stream order is too).
std::uint64_t stream_fingerprint(const QueryRequest& req) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const char c : req.pattern.to_string()) {
    mix(static_cast<unsigned char>(c));
  }
  mix(static_cast<unsigned char>(req.plan.induced));
  mix(static_cast<unsigned char>(req.plan.count_mode));
  // code_motion changes neither the matching order nor the DFS order, so it
  // is deliberately absent: a stream may resume under the other setting.
  return h;
}

/// Token layout: "stm1.<epoch>.<fingerprint hex>.<v0>.<skip>.<total>" — the
/// stream position "after `skip` embeddings of outer vertex v0, with `total`
/// embeddings delivered on earlier pages".
std::string encode_resume(std::uint64_t epoch, std::uint64_t fp, VertexId v0,
                          std::uint64_t skip, std::uint64_t total) {
  std::ostringstream os;
  os << "stm1." << epoch << '.' << std::hex << fp << std::dec << '.' << v0
     << '.' << skip << '.' << total;
  return os.str();
}

/// Parses a non-empty digit string (lowercase hex for base 16); false on a
/// foreign character or a value that does not fit 64 bits.
bool parse_u64(const std::string& s, int base, std::uint64_t* out) {
  const char* digits = base == 16 ? "0123456789abcdef" : "0123456789";
  if (s.empty() || s.find_first_not_of(digits) != std::string::npos) {
    return false;
  }
  return std::from_chars(s.data(), s.data() + s.size(), *out, base).ec ==
         std::errc();
}

bool decode_resume(const std::string& token, std::uint64_t epoch,
                   std::uint64_t fp, VertexId num_vertices, VertexId* v0,
                   std::uint64_t* skip, std::uint64_t* total,
                   std::string* error) {
  std::vector<std::string> fields(1);
  for (const char c : token) {
    if (c == '.') {
      fields.emplace_back();
    } else {
      fields.back().push_back(c);
    }
  }

  const auto malformed = [&] {
    *error =
        "malformed resume token: expected "
        "\"stm1.<epoch>.<fingerprint>.<v0>.<skip>.<total>\", got \"" +
        token + "\"";
    return false;
  };
  std::uint64_t tok_epoch = 0, tok_fp = 0, tok_v0 = 0;
  if (fields.size() != 6 || fields[0] != "stm1" ||
      !parse_u64(fields[1], 10, &tok_epoch) ||
      !parse_u64(fields[2], 16, &tok_fp) ||
      !parse_u64(fields[3], 10, &tok_v0) || !parse_u64(fields[4], 10, skip) ||
      !parse_u64(fields[5], 10, total)) {
    // A parse failure means the caller corrupted the token; stale tokens
    // (below) parse fine and get a diagnosable expected-vs-observed error.
    return malformed();
  }
  if (tok_fp != fp) {
    std::ostringstream os;
    os << "stale resume token: issued for pattern fingerprint " << std::hex
       << tok_fp << " but this query's fingerprint is " << fp << std::dec
       << " (different pattern or plan options)";
    *error = os.str();
    return false;
  }
  if (tok_epoch != epoch) {
    std::ostringstream os;
    os << "stale resume token: issued at graph epoch " << tok_epoch
       << " but the graph has moved on to epoch " << epoch
       << " (the stream order is only defined within one epoch)";
    *error = os.str();
    return false;
  }
  // A token of this epoch points inside its graph unless it was corrupted.
  if (tok_v0 >= num_vertices) return malformed();
  *v0 = static_cast<VertexId>(tok_v0);
  return true;
}

}  // namespace

struct QueryPath::StreamState {
  StreamState(stream::SequencerConfig seq_cfg, const CancelToken* tok)
      : seq(seq_cfg, tok) {}

  QueryPath* path = nullptr;  // set on admission; null for refused streams
  QueryRequest req;
  StreamOptions opts;
  std::shared_ptr<CancelToken> token;
  double deadline_ms = 0.0;  // effective budget (effective_deadline_ms)
  std::shared_ptr<const GraphSnapshot> snap;
  std::shared_ptr<const MatchingPlan> plan;
  /// matching_order(pattern): original vertex at plan position i.
  std::vector<std::size_t> order;
  bool plan_cache_hit = false;
  std::uint64_t fingerprint = 0;

  VertexId start_v0 = 0;
  std::uint64_t resumed_total = 0;  // delivered on earlier pages

  stream::OutputSequencer seq;
  std::unique_ptr<stream::EmitPipeline> pipe;
  std::thread producer;

  /// Producer-side engine statistics; written before seq.finish(), read by
  /// the finalizer after joining the producer (mu spans the detach).
  std::mutex mu;
  QueryStats engine_stats;

  // Consumer-thread state. The handle is single-consumer; the finalizer is
  // serialized behind the once-flag and joins the producer first.
  std::uint64_t skip_left = 0;
  // delivered / limit_reached / drained are written by the consumer thread
  // in next() and read by whichever thread runs the finalizer — including
  // the session destructor sweeping live streams while a consumer is still
  // pulling. Atomics keep that teardown race benign (and TSan-clean).
  std::atomic<std::uint64_t> delivered{0};
  VertexId cursor_v0 = 0;         // outer vertex of the stream position
  std::uint64_t cursor_skip = 0;  // embeddings delivered at cursor_v0
  std::atomic<bool> limit_reached{false};
  std::atomic<bool> drained{false};  // consumer observed end-of-stream
  std::atomic<bool> cancel_requested{false};
  Timer since_open;
  std::once_flag finalize_once;
  std::atomic<bool> finalized{false};
  QueryResult result;
};

std::unique_ptr<EmbeddingStream> QueryPath::refuse_stream(
    std::shared_ptr<StreamState> st, QueryStatus status, std::string error) {
  if (status != QueryStatus::kOverloaded) queries_admitted_.inc();
  st->snap.reset();  // pins no version and issues no resume token
  st->seq.abort(status, error);
  st->result = refused(st->req.engine, status, std::move(error));
  settle(st->token, st->result);
  st->finalized.store(true, std::memory_order_release);
  std::call_once(st->finalize_once, [] {});  // later finalize() is a no-op
  return std::unique_ptr<EmbeddingStream>(new EmbeddingStream(std::move(st)));
}

std::unique_ptr<EmbeddingStream> QueryPath::open_stream(StreamRequest req) {
  stream::SequencerConfig seq_cfg;
  seq_cfg.max_buffered = std::max<std::size_t>(1, req.stream.max_buffered);
  auto token = std::make_shared<CancelToken>();
  auto st = std::make_shared<StreamState>(seq_cfg, token.get());
  st->token = std::move(token);
  st->req = std::move(req.query);
  st->opts = std::move(req.stream);
  start(st->token);

  const EngineConfig& sc = st->req.simt;
  if (st->req.host.v_begin != 0 || sc.v_begin != 0 || sc.v_end != 0 ||
      sc.v_stride != 1 || sc.pin_v1 != kNoVertex) {
    return refuse_stream(
        st, QueryStatus::kInvalidArgument,
        "stream requests must leave the engine outer-loop range knobs "
        "(host.v_begin, simt.v_begin/v_end/v_stride/pin_v1) at their "
        "defaults; the stream cursor owns them");
  }

  st->snap = graph_.snapshot();
  st->fingerprint = stream_fingerprint(st->req);
  std::string err;
  if (!st->opts.resume_token.empty() &&
      !decode_resume(st->opts.resume_token, st->snap->epoch(), st->fingerprint,
                     st->snap->num_vertices(), &st->start_v0, &st->skip_left,
                     &st->resumed_total, &err)) {
    return refuse_stream(st, QueryStatus::kInvalidArgument, std::move(err));
  }
  try {
    st->plan = plans_.get_or_compile(st->req.pattern, st->req.plan,
                                     &st->plan_cache_hit);
    // The cache's canonical tier may serve a plan compiled from a renumbered
    // isomorph: the same count, but a different order and plan positions
    // that matching_order(req.pattern) below would map to the wrong
    // vertices. A stream is a pure function of its own pattern, so it
    // compiles that pattern's plan instead.
    const Pattern own = reorder_for_matching(st->req.pattern);
    if (!(st->plan->pattern() == own)) {
      st->plan = std::make_shared<const MatchingPlan>(own, st->req.plan);
      st->plan_cache_hit = false;
    }
  } catch (const check_error& e) {
    return refuse_stream(st, QueryStatus::kInvalidArgument, e.what());
  }

  st->deadline_ms = effective_deadline_ms(st->req.deadline_ms);
  if (st->deadline_ms > 0.0) st->token->set_deadline_ms(st->deadline_ms);
  st->order = matching_order(st->req.pattern);
  st->cursor_v0 = st->start_v0;
  st->cursor_skip = st->skip_left;
  st->pipe = std::make_unique<stream::EmitPipeline>(st->seq, st->order,
                                                    st->opts.emit_fault);
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    if (shutting_down_) {
      return refuse_stream(st, QueryStatus::kCancelled,
                           "stream rejected: the session is shutting down");
    }
    if (cfg_.max_open_streams > 0 &&
        live_streams_.size() >= cfg_.max_open_streams) {
      return refuse_stream(
          st, QueryStatus::kOverloaded,
          "stream admission rejected: " + std::to_string(live_streams_.size()) +
              " of " + std::to_string(cfg_.max_open_streams) +
              " stream slots are open");
    }
    st->path = this;
    live_streams_.insert(st);
    open_streams_.set(static_cast<double>(live_streams_.size()));
  }
  queries_admitted_.inc();

  st->producer = std::thread([this, st] { run_stream(st); });
  return std::unique_ptr<EmbeddingStream>(new EmbeddingStream(std::move(st)));
}

void QueryPath::run_stream(const std::shared_ptr<StreamState>& st) {
  QueryStats stats;
  std::string error;
  try {
    // Streams are long-lived engine runs over a pinned snapshot; the lease
    // keeps the backend's decoded lists stable until the producer exits.
    const auto storage_lease = st->snap->storage_lease();
    HostEngineConfig host = host_config(st->req.host);
    host.v_begin = st->start_v0;
    EngineConfig simt = st->req.simt;
    simt.v_begin = st->start_v0;
    stats = run_engine(st->req.engine, st->snap->view(), st->req.pattern,
                       *st->plan, host, simt, st->token.get(), st->pipe.get())
                .stats;
  } catch (...) {
    Failure failure = escaped_failure(std::string("stream engine ") +
                                      to_string(st->req.engine) + " threw");
    stats.status = failure.status;
    error = std::move(failure.error);
  }
  if (st->pipe->failed()) {
    // kEmitDrop budget exhausted: the pipeline already aborted the sequencer
    // with kInternalError; mirror it in the engine-side outcome.
    stats.status = QueryStatus::kInternalError;
    error = st->pipe->error();
  }
  {
    std::lock_guard<std::mutex> lock(st->mu);
    st->engine_stats = stats;
  }
  st->seq.finish(stats.status, std::move(error));
}

QueryPath::~QueryPath() {
  std::vector<std::shared_ptr<StreamState>> live;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    // From here on open_stream refuses (kCancelled) instead of admitting:
    // the flag and the sweep snapshot change under one lock, so a stream
    // racing this destructor is either in `live` (and swept below) or was
    // never admitted — it cannot slip in between and outlive the session.
    shutting_down_ = true;
    live.assign(live_streams_.begin(), live_streams_.end());
  }
  for (const auto& st : live) finalize_stream(st);
}

void QueryPath::finalize_stream(const std::shared_ptr<StreamState>& st) {
  std::call_once(st->finalize_once, [&st] {
    // Stop the producer side (no-ops when the stream already ended) and wait
    // for it: engine_stats and the sequencer's terminal state settle here.
    if (!st->drained) {
      // Closed early: stop the engine and unblock producers parked on
      // backpressure. A drained stream must do neither — the producer may
      // not have recorded its terminal status yet (every bucket is posted,
      // but the engine can still be tearing down and would observe the
      // cancel), and the sequencer keeps the first status it is given.
      st->token->cancel();
      st->seq.abort(QueryStatus::kCancelled,
                    "stream closed before end of stream (the delivered "
                    "embeddings are a valid prefix)");
    }
    if (st->producer.joinable()) st->producer.join();

    QueryResult r;
    if (st->limit_reached) {
      // The page is complete; the engine's cooperative stop is not an error.
      r.status = QueryStatus::kOk;
    } else if (st->cancel_requested.load(std::memory_order_acquire)) {
      r.status = QueryStatus::kCancelled;
    } else if (st->drained) {
      r.status = st->seq.final_status();
      r.error = st->seq.final_error();
    } else {
      r.status = QueryStatus::kCancelled;
      r.error = st->seq.final_error();
    }
    {
      std::lock_guard<std::mutex> lock(st->mu);
      r.stats = st->engine_stats;
    }
    r.stats.status = r.status;
    r.stats.faults_injected += st->pipe->faults_injected();
    r.count = st->delivered;
    r.served_by = st->req.engine;
    r.attempts = 1;
    r.plan_cache_hit = st->plan_cache_hit;
    r.graph_epoch = st->snap->epoch();
    r.total_ms = st->since_open.elapsed_ms();
    if (!r.ok() && r.error.empty()) {
      // Every non-kOk stream result carries a detail string — including a
      // stream cancelled between admission and its first emission, whose
      // sequencer never saw a terminal message.
      r.error = failure_detail(r, st->deadline_ms, /*stream=*/true);
    }
    st->result = std::move(r);
    st->finalized.store(true, std::memory_order_release);

    QueryPath* p = st->path;
    p->stream_emitted_total_.inc(st->pipe->emitted());
    p->stream_backpressure_ms_.observe(st->seq.stall_ms());
    p->settle(st->token, st->result);
    std::lock_guard<std::mutex> lock(p->streams_mu_);
    p->live_streams_.erase(st);
    p->open_streams_.set(static_cast<double>(p->live_streams_.size()));
  });
}

EmbeddingStream::EmbeddingStream(std::shared_ptr<QueryPath::StreamState> st)
    : st_(std::move(st)) {}

EmbeddingStream::~EmbeddingStream() { finalize(); }

void EmbeddingStream::finalize() { QueryPath::finalize_stream(st_); }

bool EmbeddingStream::next(Embedding* out) {
  QueryPath::StreamState& st = *st_;
  if (st.finalized.load(std::memory_order_acquire) || st.limit_reached) {
    return false;
  }
  Embedding e;
  for (;;) {
    if (!st.seq.next(&e)) {
      st.drained = true;
      finalize();
      return false;
    }
    if (st.skip_left > 0) {
      // Resumed page: the engine restarted at the cursor's outer vertex;
      // discard the embeddings the previous page already delivered for it.
      --st.skip_left;
      continue;
    }
    break;
  }
  ++st.delivered;
  const std::size_t pos0 = st.order.empty() ? 0 : st.order[0];
  const VertexId v0 = e[pos0];
  if (v0 == st.cursor_v0) {
    ++st.cursor_skip;
  } else {
    st.cursor_v0 = v0;
    st.cursor_skip = 1;
  }
  if (st.opts.limit > 0 && st.delivered >= st.opts.limit) {
    st.limit_reached = true;
    st.token->cancel();
    st.seq.abort(QueryStatus::kOk, std::string());
  }
  *out = std::move(e);
  return true;
}

const QueryResult& EmbeddingStream::result() {
  finalize();
  return st_->result;
}

std::string EmbeddingStream::resume_token() const {
  const QueryPath::StreamState& st = *st_;
  if (st.snap == nullptr) return std::string();  // refused stream
  if (st.finalized.load(std::memory_order_acquire) && st.result.ok() &&
      !st.limit_reached) {
    return std::string();  // exhausted: there is nothing to resume to
  }
  return encode_resume(st.snap->epoch(), st.fingerprint, st.cursor_v0,
                       st.cursor_skip, st.resumed_total + st.delivered);
}

void EmbeddingStream::cancel() {
  st_->cancel_requested.store(true, std::memory_order_release);
  st_->token->cancel();
  st_->seq.abort(QueryStatus::kCancelled, "stream cancelled by caller");
}

std::uint64_t EmbeddingStream::delivered() const { return st_->delivered; }

std::unique_ptr<EmbeddingStream> GraphSession::open_stream(StreamRequest req) {
  return queries_.open_stream(std::move(req));
}

TopKResult GraphSession::top_k(const QueryRequest& req,
                               const TopKOptions& opts) {
  STM_CHECK_MSG(opts.k >= 1, "top_k requires k >= 1");
  STM_CHECK_MSG(static_cast<bool>(opts.score), "top_k requires a scorer");

  StreamRequest sreq;
  sreq.query = req;
  sreq.stream = opts.stream;
  sreq.stream.limit = 0;  // top-k must see every embedding
  sreq.stream.resume_token.clear();
  const std::unique_ptr<EmbeddingStream> s = open_stream(std::move(sreq));

  // Min-heap of size k ordered worst-first under (score desc, rank asc):
  // the top is the current k-th best, evicted when something better lands.
  const auto better = [](const ScoredEmbedding& a, const ScoredEmbedding& b) {
    return a.score > b.score || (a.score == b.score && a.rank < b.rank);
  };
  std::priority_queue<ScoredEmbedding, std::vector<ScoredEmbedding>,
                      decltype(better)>
      heap(better);
  Embedding e;
  std::uint64_t rank = 0;
  while (s->next(&e)) {
    ScoredEmbedding se;
    se.score = opts.score(e);
    se.rank = rank++;
    se.embedding = std::move(e);
    heap.push(std::move(se));
    if (heap.size() > opts.k) heap.pop();
  }

  TopKResult out;
  out.result = s->result();
  out.top.resize(heap.size());
  for (std::size_t i = heap.size(); i-- > 0;) {
    out.top[i] = heap.top();
    heap.pop();
  }
  return out;
}

}  // namespace stm
