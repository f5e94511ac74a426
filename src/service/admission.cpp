#include "service/admission.hpp"

#include "util/check.hpp"

namespace stm {

AdmissionController::AdmissionController(std::size_t num_workers,
                                         std::size_t max_queue,
                                         const FaultConfig& pool_fault)
    : pool_(num_workers), max_queue_(max_queue) {
  if (pool_fault.enabled()) {
    STM_CHECK(pool_fault.max_unit_attempts >= 1);
    injector_.emplace(pool_fault);
    pool_.set_fault_injection(&*injector_, pool_fault.max_unit_attempts);
  }
}

bool AdmissionController::admit(QueryPriority priority,
                                std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ + running_ >= pool_.size() + max_queue_) return false;
    queues_[static_cast<std::size_t>(priority)].push_back(std::move(job));
    ++pending_;
  }
  pool_.submit([this] { pump(); });
  return true;
}

void AdmissionController::pump() {
  std::function<void()> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& q : queues_) {
      if (!q.empty()) {
        job = std::move(q.front());
        q.pop_front();
        break;
      }
    }
    STM_CHECK_MSG(job != nullptr, "pump scheduled without a pending job");
    --pending_;
    ++running_;
  }
  job();
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
}

void AdmissionController::drain() { pool_.wait_idle(); }

std::size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

std::size_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

std::string AdmissionController::rejection() const {
  return "admission rejected: " + std::to_string(num_workers()) +
         " running + " + std::to_string(max_queue_) +
         " queued slots are full";
}

}  // namespace stm
