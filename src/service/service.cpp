#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace stm {

GraphSession::GraphSession(Graph graph, SessionConfig cfg)
    : GraphSession(cfg, UpdatePath::recover(std::move(graph), cfg.persistence)) {
}

std::unique_ptr<GraphSession> GraphSession::restore(SessionConfig cfg) {
  STM_CHECK_MSG(cfg.persistence.enabled(),
                "restore requires SessionConfig::persistence.dir");
  UpdatePath::Recovery rec = UpdatePath::recover(Graph{}, cfg.persistence);
  STM_CHECK_MSG(rec.state.checkpoint.has_value(),
                "restore found no loadable checkpoint in '"
                    << cfg.persistence.dir
                    << "'; reconstruct the session with its seed graph");
  return std::unique_ptr<GraphSession>(
      new GraphSession(std::move(cfg), std::move(rec)));
}

GraphSession::GraphSession(SessionConfig cfg, UpdatePath::Recovery rec)
    : dyn_(std::move(rec.graph), rec.start_epoch, cfg.storage),
      cfg_(std::move(cfg)),
      plan_cache_(cfg_.plan_cache_capacity),
      updates_(dyn_, cfg_, plan_cache_, metrics_, std::move(rec)),
      queries_(dyn_, cfg_, plan_cache_, metrics_, admission_, updates_),
      admission_(std::max<std::size_t>(1, cfg_.max_concurrent_queries),
                 cfg_.max_queued_queries, cfg_.resilience.pool_fault) {}

GraphSession::~GraphSession() { drain(); }

std::future<UpdateOutcome> GraphSession::submit_updates(UpdateBatch batch) {
  auto promise = std::make_shared<std::promise<UpdateOutcome>>();
  std::future<UpdateOutcome> future = promise->get_future();
  auto shared = std::make_shared<UpdateBatch>(std::move(batch));
  // Updates ride the same dispatcher pool as queries, at kHigh priority: a
  // saturated read workload delays writes rather than starving them, and the
  // same overload bound sheds both.
  const bool admitted =
      admission_.admit(QueryPriority::kHigh, [this, shared, promise] {
        try {
          promise->set_value(updates_.apply(*shared));
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      });
  if (!admitted) {
    UpdateOutcome rejected;
    rejected.status = QueryStatus::kOverloaded;
    rejected.epoch = dyn_.epoch();
    rejected.error = admission_.rejection();
    promise->set_value(std::move(rejected));
  }
  return future;
}

}  // namespace stm
