// The traced pipeline: Grapple's analysis rebuilt from public module entry
// points, in the facade's order, with a span around every call:
//
//   ParseProgram -> UnrollLoops -> CallGraph -> BuildIcfet -> AliasGraph ->
//   GraphEngine::Finalize/Run -> AliasIndex -> per checker: TypestateGraph ->
//   Finalize/Run -> ExtractReports -> ReportsToJson
//
// It must render reports byte-identical to the facade (core/grapple.cc) on
// the same text and options; the batch workloads fail the run otherwise.
// Engines get an injected TaskRuntime whose Stats() the ledger reads, and a
// TimedOracle decorator that times MergeAndCheck through the public
// ConstraintOracle interface, lock wait included.
#ifndef GRAPPLE_YARDSTICK_PIPELINE_H_
#define GRAPPLE_YARDSTICK_PIPELINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/grapple.h"
#include "src/graph/constraint_oracle.h"
#include "yardstick/common.h"

namespace yardstick {

// Forwards every ConstraintOracle call to `inner`, counting MergeAndCheck
// calls and the wall time spent inside them.
class TimedOracle : public grapple::ConstraintOracle {
 public:
  explicit TimedOracle(grapple::ConstraintOracle* inner) : inner_(inner) {}

  std::vector<uint8_t> BasePayload(const grapple::PathEncoding& enc) override {
    return inner_->BasePayload(enc);
  }
  std::vector<uint8_t> TruePayload() override { return inner_->TruePayload(); }
  std::optional<std::vector<uint8_t>> MergeAndCheck(const uint8_t* a, size_t a_len,
                                                    const uint8_t* b, size_t b_len) override;
  grapple::OracleStats Stats() const override { return inner_->Stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  grapple::obs::MetricsSnapshot Metrics() const override { return inner_->Metrics(); }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  double seconds() const { return static_cast<double>(nanos_.load()) * 1e-9; }

 private:
  grapple::ConstraintOracle* inner_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> nanos_{0};
};

// One subject's pipeline. Counters accumulate under their ledger metric
// names ("graph.joins", "smt.solves", ...); span durations are read from
// the tracer, named after the metric they feed ("ir.parse" -> ir.parse_s).
class Pipeline {
 public:
  // `work_dir` must exist; the pipeline writes under it and never removes
  // it. `tracer` may be null (no spans).
  Pipeline(const grapple::GrappleOptions& options, std::string work_dir, Tracer* tracer,
           std::string id);
  ~Pipeline();

  // Frontend and phase 1. Throws std::runtime_error on a parse failure.
  void BuildAlias(const std::string& text);

  // Phases 2-3 for the four built-in checkers, then the render. Repeatable,
  // like Grapple::Check(). Returns the report JSON exactly as
  // `analyze_file --json` prints it; fills
  // `per_checker` (checker name -> reports) when non-null.
  std::string CheckAll(std::map<std::string, std::vector<grapple::BugReport>>* per_checker);

  // Counter ledger, including the runtime's busy time and steals so far.
  std::map<std::string, double> Counters() const;

 private:
  struct AliasPhase;

  void AddEngine(const grapple::GraphEngine& engine);

  grapple::GrappleOptions options_;
  std::string work_dir_;
  Tracer* tracer_;
  std::string id_;
  std::map<std::string, double> counters_;
  size_t check_runs_ = 0;  // names repeat runs' dirs like the facade does
  // Declared before the alias phase: engines drain their I/O strands on
  // destruction, so the runtime must outlive them.
  std::unique_ptr<grapple::TaskRuntime> runtime_;
  std::unique_ptr<AliasPhase> alias_;
};

}  // namespace yardstick

#endif  // GRAPPLE_YARDSTICK_PIPELINE_H_
