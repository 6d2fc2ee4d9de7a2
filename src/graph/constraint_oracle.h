// The constraint oracle: how the engine asks "is this combined path
// feasible, and what payload does the induced edge carry?".
//
// Two implementations exist:
//   * IntervalOracle (here) — the Grapple design: payloads are interval
//     sequence encodings; merging uses the 4-case algorithm; feasibility
//     decodes against the in-memory ICFET and solves with the built-in SMT
//     solver; results are memoized in an LRU cache keyed by the
//     encoding (§4.3, Table 4). Merges run concurrently; the memo is the
//     only state they share.
//   * ExplicitOracle (src/baseline) — the Table-5 baseline: payloads carry
//     the constraint itself, growing with path length.
#ifndef GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_
#define GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/pathenc/constraint_decoder.h"
#include "src/pathenc/path_encoding.h"
#include "src/smt/solver.h"
#include "src/support/lru_cache.h"
#include "src/support/timer.h"

namespace grapple {

struct OracleStats {
  uint64_t merges = 0;
  uint64_t constraints_checked = 0;  // actual decode+solve executions
  uint64_t cache_hits = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  double lookup_seconds = 0;  // encoding/decoding + cache probing
  double solve_seconds = 0;   // SMT time

  // The same numbers under the registry's counter names ("oracle_merges_total",
  // "oracle_lookup_ns", ...), so snapshot-based consumers work with any
  // oracle implementation.
  obs::MetricsSnapshot ToSnapshot() const;
};

class ConstraintOracle {
 public:
  virtual ~ConstraintOracle() = default;

  // Payload for a base edge carrying `enc`.
  virtual std::vector<uint8_t> BasePayload(const PathEncoding& enc) = 0;

  // Payload representing the always-true constraint (used when widening).
  virtual std::vector<uint8_t> TruePayload() = 0;

  // Combines the payloads of two consecutive edges; returns the payload for
  // the induced transitive edge, or nullopt when the combined constraint is
  // unsatisfiable (the edge must not be added). Implementations must accept
  // concurrent calls from the engine's join shards, and the answer must be
  // a pure function of the two payloads: never of the call order or of
  // which calls ran concurrently.
  virtual std::optional<std::vector<uint8_t>> MergeAndCheck(const uint8_t* a, size_t a_len,
                                                            const uint8_t* b, size_t b_len) = 0;

  virtual OracleStats Stats() const = 0;
  virtual void ResetStats() = 0;

  // Metrics snapshot under registry counter names. The default renders
  // Stats() through OracleStats::ToSnapshot(); registry-backed oracles
  // override it to expose their full snapshot (histograms included).
  virtual obs::MetricsSnapshot Metrics() const { return Stats().ToSnapshot(); }
};

class IntervalOracle : public ConstraintOracle {
 public:
  struct Options {
    size_t cache_capacity = size_t{1} << 16;
    bool enable_cache = true;
    // Encoding-length cap handed to PathEncoding::Merge.
    size_t max_encoding_items = 64;
    SolverLimits solver_limits;
    // Adds a wait of this many microseconds to every actual solve, modeling
    // the per-call cost of an external SMT solver (the paper used Z3);
    // 0 disables. Used by the Figure-9 bench to reproduce the paper's cost
    // profile (see DESIGN.md substitutions).
    uint32_t simulated_solve_latency_us = 0;
    // How the simulated latency spends its time. False (default): busy-wait,
    // modeling an in-process solver that burns this core. True: sleep,
    // modeling a round trip to an out-of-process solver endpoint — the CPU
    // is free meanwhile, so concurrent checker runs overlap their solver
    // waits (the scheduler speedup bench measures exactly this).
    bool simulated_solve_blocks = false;
  };

  explicit IntervalOracle(const Icfet* icfet);
  IntervalOracle(const Icfet* icfet, Options options);

  std::vector<uint8_t> BasePayload(const PathEncoding& enc) override;
  std::vector<uint8_t> TruePayload() override;
  std::optional<std::vector<uint8_t>> MergeAndCheck(const uint8_t* a, size_t a_len,
                                                    const uint8_t* b, size_t b_len) override;
  OracleStats Stats() const override;
  void ResetStats() override;

  // Decodes and solves one payload directly (used by checkers on final
  // edges, bypassing merge).
  SolveResult CheckPayload(const uint8_t* payload, size_t len);
  Constraint DecodePayload(const uint8_t* payload, size_t len);

  obs::MetricsSnapshot Metrics() const override { return metrics_.Snapshot(); }

 private:
  // A memo entry: the result and the full serialized encoding it was
  // solved for. The memo is keyed by a 64-bit hash of the encoding, and a
  // hit counts only if the stored encoding matches, so a hash collision
  // costs a solve and can never change a result.
  struct MemoEntry {
    std::vector<uint8_t> encoding;
    SolveResult result;
  };

  // Decides `enc`, whose serialized form is `bytes`, through the memo.
  SolveResult CheckEncoding(const PathEncoding& enc, std::vector<uint8_t> bytes);

  // Everything but the memo is immutable after construction or per call
  // (a miss decodes and solves on a stack PathDecoder and Solver), so the
  // memo is the only state concurrent merges share, and memo_mu_ is held
  // only for one probe or one Put. The memo caches a deterministic function
  // of its key (SolverLimits are count-based), so it can change how fast an
  // answer comes, never which answer: two shards that miss the same key at
  // once both solve and both Put the same result.
  const Icfet* icfet_;
  Options options_;
  std::mutex memo_mu_;
  LruCache<uint64_t, MemoEntry> memo_;  // guarded by memo_mu_

  obs::MetricsRegistry metrics_;
  obs::MetricId c_merges_;
  obs::MetricId c_checked_;
  obs::MetricId c_cache_hits_;
  obs::MetricId c_unsat_;
  obs::MetricId c_unknown_;
  obs::MetricId c_lookup_ns_;
  obs::MetricId c_solve_ns_;
  obs::MetricId h_solve_ns_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_
