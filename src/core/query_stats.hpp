// Unified per-query execution status and statistics.
//
// Every engine run — SIMT simulator, host-parallel, and the service layer on
// top of them — reports the same QueryStats record, so downstream consumers
// (metrics registry, benchmarks, tests) do not need per-engine glue. The
// SIMT engine additionally reports its device-level EngineStats; QueryStats
// is the cross-engine common denominator.
#pragma once

#include <cstdint>

namespace stm {

/// Terminal status of a query. Engines return kOk or kDeadlineExceeded /
/// kCancelled (cooperative interruption with partial results); the service
/// layer adds kOverloaded (rejected at admission, never executed) and
/// kInvalidArgument (a precondition check_error from plan compilation or the
/// engine, reported instead of propagated). kInternalError marks execution
/// failures: a fault-injected run whose recovery budget is exhausted, an
/// exception escaping an engine call, or a watchdog-killed stalled query —
/// all of which the service may retry or serve via the fallback chain.
enum class QueryStatus : std::uint8_t {
  kOk,
  kDeadlineExceeded,
  kCancelled,
  kOverloaded,
  kInvalidArgument,
  kInternalError,
};

inline const char* to_string(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kDeadlineExceeded: return "deadline_exceeded";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kOverloaded: return "overloaded";
    case QueryStatus::kInvalidArgument: return "invalid_argument";
    case QueryStatus::kInternalError: return "internal_error";
  }
  return "unknown";
}

/// Per-query execution statistics common to all engines.
///
/// On a non-kOk status the counters hold the partial work performed before
/// the interruption (the match count lives next to this struct in each
/// engine's result type and is likewise partial).
struct QueryStats {
  QueryStatus status = QueryStatus::kOk;
  /// Engine execution time: wall-clock ms for host execution, simulated ms
  /// for the SIMT engine.
  double engine_ms = 0.0;
  /// Scalar set-operation work (elements touched by merges/copies; for the
  /// SIMT engine, busy lane slots of warp set operations).
  std::uint64_t scalar_ops = 0;
  /// Candidate sets materialized.
  std::uint64_t sets_built = 0;
  /// Fault-injection decisions that fired during the run (0 without chaos).
  std::uint64_t faults_injected = 0;
  /// Recovery units (failed chunks / captured warp frames / device slices)
  /// re-enqueued and brought to completion without losing their work.
  std::uint64_t units_recovered = 0;
  /// Work pieces that moved between workers: host-engine donations, or the
  /// SIMT engine's local plus global steals.
  std::uint64_t steals = 0;

  QueryStats& operator+=(const QueryStats& o) {
    if (o.status != QueryStatus::kOk && status == QueryStatus::kOk)
      status = o.status;
    engine_ms += o.engine_ms;
    scalar_ops += o.scalar_ops;
    sets_built += o.sets_built;
    faults_injected += o.faults_injected;
    units_recovered += o.units_recovered;
    steals += o.steals;
    return *this;
  }
};

}  // namespace stm
