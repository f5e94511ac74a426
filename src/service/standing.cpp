#include "service/standing.hpp"

#include <algorithm>
#include <utility>

#include "core/host_engine.hpp"
#include "mqo/evaluator.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace stm {

StandingRegistry::StandingRegistry(bool indexed, std::size_t baseline_threads,
                                   PlanCache& plans, MetricsRegistry& metrics)
    : indexed_(indexed),
      baseline_threads_(std::max<std::size_t>(1, baseline_threads)),
      plans_(plans),
      metrics_(metrics) {}

std::uint64_t StandingRegistry::register_query(
    StandingQueryConfig cfg, const std::shared_ptr<const GraphSnapshot>& snap,
    const WalHook& log) {
  // Everything either delta source would reject fails here, before any
  // enumeration or side effect; install() below cannot fail halfway.
  mqo::PatternIndex::validate(cfg.pattern, cfg.plan);
  if (cfg.on_delta) {
    STM_CHECK_MSG(cfg.plan.count_mode == CountMode::kEmbeddings,
                  "standing delta streams require kEmbeddings count mode: a "
                  "subgraph can have several embeddings, so retraction of 'a "
                  "subgraph' is ill-defined at embedding granularity");
  }
  Query q;
  q.cfg = std::move(cfg);
  q.count = baseline(q.cfg, *snap, &q.full_ms);
  q.epoch = snap->epoch();

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_;
  if (log) log(entry(id, q));
  ++next_id_;
  install(id, std::move(q));
  return id;
}

std::uint64_t StandingRegistry::baseline(const StandingQueryConfig& cfg,
                                         const GraphSnapshot& snap,
                                         double* full_ms) const {
  *full_ms = 0.0;
  // Indexed: a canonical-group sibling's standing count converts
  // arithmetically (both count modes relate by the group's |Aut| factor), so
  // duplicate registrations — the at-scale common case — cost no
  // enumeration. Reading queries_ unlocked is safe: mutators are serialized
  // by the caller.
  if (indexed_) {
    if (const auto sibling = index_.any_member(cfg.pattern)) {
      const Query& sib = queries_.at(*sibling);
      const std::uint64_t aut = index_.automorphisms(*sibling);
      const std::uint64_t embeddings =
          sib.count *
          (sib.cfg.plan.count_mode == CountMode::kUniqueSubgraphs ? aut : 1);
      return cfg.plan.count_mode == CountMode::kUniqueSubgraphs
                 ? embeddings / aut
                 : embeddings;
    }
  }
  const auto plan = plans_.get_or_compile(cfg.pattern, cfg.plan);
  HostEngineConfig host;
  host.num_threads = baseline_threads_;
  Timer full_timer;
  const auto storage_lease = snap.storage_lease();
  const std::uint64_t count = host_match(snap.view(), *plan, host).count;
  *full_ms = full_timer.elapsed_ms();
  return count;
}

void StandingRegistry::install(std::uint64_t id, Query q) {
  if (indexed_) {
    // add() replaces an existing id, like insert_or_assign below, so a
    // manifest entry superseded by a WAL record rebuilds the same trie.
    index_.add(id, q.cfg.pattern, q.cfg.plan,
               static_cast<bool>(q.cfg.on_delta));
  } else {
    IncrementalOptions inc;
    inc.plan = q.cfg.plan;
    inc.engine = q.cfg.engine;
    q.matcher = std::make_shared<const IncrementalMatcher>(q.cfg.pattern, inc);
  }
  queries_.insert_or_assign(id, std::move(q));
  publish_gauges();
}

void StandingRegistry::apply(const std::shared_ptr<const GraphSnapshot>& from,
                             const DeltaEdges& applied, std::uint64_t epoch,
                             StandingBatch* out) {
  if (applied.empty()) return;
  Timer total;
  // The anchored delta enumerations read the pre-batch snapshot.
  const auto storage_lease = from->storage_lease();
  // Subscriber calls, collected under mu_ and made after it is released.
  struct Delivery {
    decltype(StandingQueryConfig::on_update) on_update;
    decltype(StandingQueryConfig::on_delta) on_delta;
    StandingQueryUpdate update;
    StandingQueryDelta delta;
  };
  std::vector<Delivery> deliveries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Delta source: one shared trie pass serving every registration, whose
    // per-query delta_ms is its amortized share of the pass.
    mqo::EvalResult shared;
    double amortized_ms = 0.0;
    if (indexed_ && !queries_.empty()) {
      Timer pass;
      shared = mqo::MultiQueryEvaluator(index_).evaluate(from, applied);
      const double pass_ms = pass.elapsed_ms();
      indexed_delta_latency_ms_.observe(pass_ms);
      amortized_ms = pass_ms / static_cast<double>(queries_.size());
    }
    for (auto& [id, q] : queries_) {
      mqo::QueryDelta d;
      double count_ms = amortized_ms;
      double embed_ms = amortized_ms;
      if (indexed_) {
        d = index_.project(id, shared);
      } else {
        Timer one;
        d.delta = q.matcher->count_delta(from, applied).delta;
        count_ms = one.elapsed_ms();
        if (q.cfg.on_delta) {
          Timer emb;
          EmbeddingDelta ed = q.matcher->embedding_delta(from, applied);
          embed_ms = emb.elapsed_ms();
          d.added = std::move(ed.added);
          d.retracted = std::move(ed.retracted);
        }
      }

      q.count = static_cast<std::uint64_t>(static_cast<std::int64_t>(q.count) +
                                           d.delta);
      q.epoch = epoch;
      ++q.batches;
      if (q.full_ms > 0.0 && count_ms > 0.0)
        delta_speedup_.set(q.full_ms / count_ms);
      const StandingQueryUpdate upd{id, epoch, d.delta, q.count, count_ms};
      if (out != nullptr) out->updates.push_back(upd);
      if (!q.cfg.on_update && !q.cfg.on_delta) continue;
      Delivery& del = deliveries.emplace_back(
          Delivery{q.cfg.on_update, q.cfg.on_delta, upd, {}});
      if (!q.cfg.on_delta) continue;
      // Embedding lists and counts are computed independently (enumeration
      // vs. counting, or the projection's |Aut| division and remap); they
      // must agree exactly.
      STM_CHECK_MSG(static_cast<std::int64_t>(d.added.size()) -
                            static_cast<std::int64_t>(d.retracted.size()) ==
                        d.delta,
                    "standing query " << id << ": embedding delta "
                                      << d.added.size() << " - "
                                      << d.retracted.size()
                                      << " disagrees with count delta "
                                      << d.delta);
      del.delta = {id, epoch, std::move(d.added), std::move(d.retracted),
                   embed_ms};
    }
  }
  for (const Delivery& del : deliveries) {
    if (del.on_update) del.on_update(del.update);
    if (del.on_delta) del.on_delta(del.delta);
  }
  if (out != nullptr) {
    out->ms = total.elapsed_ms();
    incremental_latency_ms_.observe(out->ms);
  }
}

bool StandingRegistry::unregister(std::uint64_t id, const WalHook& log) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  if (log) log(entry(id, it->second));
  queries_.erase(it);
  index_.remove(id);
  publish_gauges();
  return true;
}

void StandingRegistry::restore(
    const std::vector<persist::StandingEntry>& entries,
    std::uint64_t next_id) {
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = std::max(next_id_, next_id);
  for (const persist::StandingEntry& e : entries) {
    Query q;
    q.cfg = {Pattern::parse(e.pattern), e.plan, e.engine, {}, {}};
    q.count = e.count;
    q.epoch = e.epoch;
    q.batches = e.batches;
    q.full_ms = e.full_ms;
    install(e.id, std::move(q));
  }
}

std::optional<StandingQueryInfo> StandingRegistry::info(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = queries_.find(id);
  if (it == queries_.end()) return std::nullopt;
  const Query& q = it->second;
  return StandingQueryInfo{id, q.cfg.pattern, q.count, q.epoch, q.batches,
                           q.full_ms};
}

mqo::IndexStats StandingRegistry::index_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.stats();
}

void StandingRegistry::manifest(persist::CheckpointData* data) const {
  std::lock_guard<std::mutex> lock(mu_);
  data->next_standing_id = next_id_;
  data->standing.reserve(queries_.size());
  for (const auto& [id, q] : queries_) data->standing.push_back(entry(id, q));
}

persist::StandingEntry StandingRegistry::entry(std::uint64_t id,
                                               const Query& q) {
  return {id, q.cfg.pattern.to_string(), q.cfg.plan, q.cfg.engine,
          q.count, q.epoch, q.batches, q.full_ms};
}

void StandingRegistry::publish_gauges() {
  standing_queries_.set(static_cast<double>(queries_.size()));
  const mqo::IndexStats st = index_.stats();
  standing_patterns_.set(static_cast<double>(st.groups));
  trie_nodes_.set(static_cast<double>(st.trie.nodes));
  shared_prefix_ratio_.set(st.trie.shared_prefix_ratio);
}

}  // namespace stm
