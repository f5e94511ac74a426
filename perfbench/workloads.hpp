// The four benchmark workloads. Each builds its inputs from Args::seed,
// times its phase for Args::seconds, checks every output against an
// untimed reference, and fills a Report (end-to-end metrics always,
// per-layer metrics when Args::trace is set).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Closed loop, 4 clients, q1-q16 + q21-q24 on the skewed enron proxy.
Report run_query_mix(const Args& args, Tracer& tracer);
/// Open loop, Poisson arrivals above query_mix's capacity, all 24 patterns
/// under a 100 ms session deadline and a bounded queue.
Report run_query_overload(const Args& args, Tracer& tracer);
/// One client, the heavy hub-skewed patterns, 4 engine threads per query,
/// compressed-bitset storage.
Report run_hub_query(const Args& args, Tracer& tracer);
/// One writer of flat 64-edge batches with WAL + checkpoints and 1,000
/// indexed standing queries, two reader clients, then recovery timing.
Report run_update_standing(const Args& args, Tracer& tracer);

}  // namespace perfbench
