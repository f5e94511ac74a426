// Differential oracle: every engine must report the same count.
//
// One TestCase runs through all executors — the brute-force reference (the
// gold standard, sharing no candidate-set machinery with the optimized
// paths), the sequential recursive executor, the host-thread engine, the
// SIMT stack machine — and through the IncrementalMatcher by replaying the
// whole graph as one update batch over an edgeless base (count(∅) + Δ must
// equal the full count). Exact agreement, never tolerance: counts are
// integers and the paper's cross-system validation (§VIII) is bit-exact.
//
// Engines whose preconditions a case violates (vertex-induced semantics for
// the incremental path, patterns under two vertices) are skipped and
// recorded as such, so a disagreement report always lists which executors
// actually voted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testing/workload.hpp"

namespace stm::harness {

enum class EngineKind : std::uint8_t {
  kReference = 0,  // brute-force enumerator (expected value)
  kRecursive,      // sequential plan executor
  kHost,           // host-thread engine
  kSimt,           // simulated-GPU stack engine
  kIncremental,    // IncrementalMatcher replaying the graph as one batch
  kSharded,        // cross-shard coordinator over the case's sampled partition
  kStream,         // drained embedding streams (service layer, all engines)
  kStorage,        // engines re-run over the case's sampled storage backend
  kMqo,            // shared-prefix multi-query index vs per-pattern matchers
};
inline constexpr std::size_t kNumEngineKinds = 9;

const char* to_string(EngineKind kind);

struct OracleOptions {
  bool run_host = true;
  bool run_simt = true;
  bool run_incremental = true;
  bool run_sharded = true;
  /// The incremental replay anchors one enumeration per (pattern edge x
  /// delta edge x orientation); skip it for graphs past this many edges so
  /// a fuzz trial stays O(engine run), not O(edges x engine run).
  EdgeId incremental_max_edges = 300;
  /// Same bound for the sharded lane (its cut-edge term is anchored work of
  /// the same shape).
  EdgeId sharded_max_edges = 300;
  /// Streamed-embedding lane: every engine's drained stream must be
  /// bit-identical (order included), the multiset must equal the reference
  /// enumeration, and a paged cursor must concatenate to the full stream
  /// with no duplicate or loss.
  bool run_stream = true;
  /// Skip the stream lane past this many expected matches (it materializes
  /// every embedding several times over).
  std::uint64_t stream_max_matches = 200000;
  /// Storage lane: rebuild the case's graph under its sampled backend
  /// (compressed / compressed+bitset / spill under a tiny budget) and
  /// require bit-identical counts from the recursive, host and SIMT engines
  /// plus a bit-identical reference enumeration order. Cases that sampled
  /// kUncompressed skip the lane (the store would be the raw CSR).
  bool run_storage = true;
  /// Multi-query lane: register the case pattern plus its sampled
  /// mqo_patterns in one shared-prefix PatternIndex and replay the graph as
  /// a single batch over an edgeless base; every registration's indexed
  /// delta must equal its per-pattern IncrementalMatcher delta and the
  /// brute-force count, and collected embedding lists must equal its
  /// embedding_delta lists bit for bit.
  bool run_mqo = true;
  /// Like incremental_max_edges: the lane's trie walks anchor per delta
  /// edge, so skip graphs past this many edges.
  EdgeId mqo_max_edges = 200;
  /// Skip a registration's embedding-list comparison past this many
  /// expected matches (the lists materialize every embedding twice over).
  std::uint64_t mqo_max_matches = 20000;
};

struct EngineCount {
  EngineKind engine = EngineKind::kReference;
  std::uint64_t count = 0;
};

struct OracleReport {
  /// The reference count (what every other executor must equal).
  std::uint64_t expected = 0;
  /// One entry per executor that ran (reference first).
  std::vector<EngineCount> counts;
  /// Executors skipped because the case violates their preconditions.
  std::vector<EngineKind> skipped;
  bool agreed = true;
  /// Human-readable detail on non-count disagreements (stream order /
  /// multiset / cursor failures); empty when everything agreed.
  std::vector<std::string> notes;

  /// Multi-line human-readable summary (per-engine counts, mismatches).
  std::string describe() const;
};

/// Runs every applicable executor on `c` and compares counts exactly.
///
/// Hidden test-only sabotage hook: setting the environment variable
/// STMATCH_FUZZ_SABOTAGE=host_off_by_one perturbs the host-engine count by
/// +1 whenever it is nonzero, so the harness's own detection and
/// minimization paths can be exercised end to end (see TESTING.md).
OracleReport run_oracle(const TestCase& c, const OracleOptions& opts = {});

/// The default minimizer predicate: true iff run_oracle disagrees.
bool oracle_disagrees(const TestCase& c);

}  // namespace stm::harness
