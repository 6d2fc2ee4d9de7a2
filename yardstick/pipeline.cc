#include "yardstick/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "src/analysis/alias_graph.h"
#include "src/analysis/alias_index.h"
#include "src/analysis/typestate_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/checker/builtin_checkers.h"
#include "src/checker/checker.h"
#include "src/checker/report_json.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/grammar/typestate_grammar.h"
#include "src/ir/parser.h"
#include "src/support/env.h"
#include "src/symexec/cfet_builder.h"

namespace yardstick {

using namespace grapple;

std::optional<std::vector<uint8_t>> TimedOracle::MergeAndCheck(const uint8_t* a, size_t a_len,
                                                               const uint8_t* b, size_t b_len) {
  int64_t begin = NowNs();
  std::optional<std::vector<uint8_t>> result = inner_->MergeAndCheck(a, a_len, b, b_len);
  nanos_.fetch_add(static_cast<uint64_t>(NowNs() - begin), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

namespace {

// The facade's field universe: every field name loaded or stored anywhere,
// sorted (grammar label numbering depends on the order).
void CollectFields(const std::vector<Stmt>& block, std::unordered_set<std::string>* out) {
  for (const auto& stmt : block) {
    if (stmt.kind == StmtKind::kLoad || stmt.kind == StmtKind::kStore) {
      out->insert(stmt.field);
    }
    CollectFields(stmt.then_block, out);
    CollectFields(stmt.else_block, out);
  }
}

std::vector<std::string> FieldUniverse(const Program& program) {
  std::unordered_set<std::string> fields;
  for (const auto& method : program.methods()) {
    CollectFields(method.body, &fields);
  }
  std::vector<std::string> sorted(fields.begin(), fields.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

IntervalOracle::Options OracleOptions(const GrappleOptions& options) {
  IntervalOracle::Options out;
  out.cache_capacity = options.engine.cache_capacity;
  out.enable_cache = options.engine.enable_cache;
  out.max_encoding_items = options.engine.max_encoding_items;
  out.solver_limits = options.engine.solver_limits;
  out.simulated_solve_latency_us = options.engine.simulated_solve_latency_us;
  out.simulated_solve_blocks = options.engine.simulated_solve_blocks;
  return out;
}

EngineOptions EngineOptionsFor(const GrappleOptions& options, TaskRuntime* runtime,
                               const std::string& dir, bool provenance) {
  EngineOptions out;
  out.work_dir = dir;
  out.memory_budget_bytes = options.engine.memory_budget_bytes;
  out.num_threads = options.scheduling.num_threads;
  out.max_variants_per_triple = options.engine.max_variants_per_triple;
  out.io_pipeline = options.engine.io_pipeline;
  out.checkpoint_interval = options.robustness.checkpoint_interval;
  out.checkpoint_min_spacing_seconds = options.robustness.checkpoint_min_spacing_s;
  out.runtime = runtime;
  out.record_provenance = provenance;
  return out;
}

std::string SubDir(const std::string& root, const std::string& name) {
  std::string dir = root + "/" + name;
  MakeDirs(dir);
  return dir;
}

void AddOracle(const IntervalOracle& oracle, std::map<std::string, double>* counters) {
  OracleStats stats = oracle.Stats();
  (*counters)["pathenc.lookup_s"] += stats.lookup_seconds;
  (*counters)["oracle.cache_hits"] += static_cast<double>(stats.cache_hits);
  (*counters)["smt.solves"] += static_cast<double>(stats.constraints_checked);
  (*counters)["smt.solve_s"] += stats.solve_seconds;
  (*counters)["oracle.unsat"] += static_cast<double>(stats.unsat);
}

}  // namespace

struct Pipeline::AliasPhase {
  std::unique_ptr<Program> program;
  std::unique_ptr<CallGraph> call_graph;
  Icfet icfet;
  Grammar grammar;
  PointsToLabels labels;
  std::unique_ptr<IntervalOracle> oracle;
  std::unique_ptr<TimedOracle> timed;
  std::unique_ptr<GraphEngine> engine;
  std::unique_ptr<AliasGraph> graph;
  std::unique_ptr<AliasIndex> index;
};

Pipeline::Pipeline(const GrappleOptions& options, std::string work_dir, Tracer* tracer,
                   std::string id)
    : options_(options), work_dir_(std::move(work_dir)), tracer_(tracer), id_(std::move(id)) {
  // The facade's worker formula: checker_parallelism * num_threads + 1.
  TaskRuntimeOptions rt;
  rt.workers = options_.scheduling.checker_parallelism *
                   ResolveThreadCount(options_.scheduling.num_threads) +
               1;
  rt.steal_policy = options_.scheduling.steal_policy;
  rt.lane_weights = options_.scheduling.lane_weights;
  runtime_ = std::make_unique<TaskRuntime>(rt);
}

Pipeline::~Pipeline() = default;

void Pipeline::AddEngine(const GraphEngine& engine) {
  const EngineStats& stats = engine.stats();
  counters_["analysis.base_edges"] += static_cast<double>(stats.base_edges);
  counters_["graph.joins"] += static_cast<double>(stats.joins_attempted);
  counters_["graph.edges_added"] += static_cast<double>(stats.edges_added);
  counters_["graph.pair_loads"] += static_cast<double>(stats.pair_loads);
  counters_["graph.splits"] += static_cast<double>(stats.partition_splits);
  counters_["graph.peak_partitions"] =
      std::max(counters_["graph.peak_partitions"], static_cast<double>(stats.peak_partitions));
  counters_["graph.io_bytes"] +=
      static_cast<double>(stats.metrics.CounterOr("io_bytes_read") +
                          stats.metrics.CounterOr("io_bytes_written"));
  auto io = stats.phase_seconds.find("io");
  counters_["graph.io_s"] += io == stats.phase_seconds.end() ? 0 : io->second;
}

void Pipeline::BuildAlias(const std::string& text) {
  auto alias = std::make_unique<AliasPhase>();
  {
    Tracer::Scope span(tracer_, "ir.parse", id_);
    ParseResult parsed = ParseProgram(text);
    if (!parsed.ok) {
      throw std::runtime_error(id_ + ": parse error: " + parsed.error);
    }
    alias->program = std::make_unique<Program>(std::move(parsed.program));
  }
  {
    Tracer::Scope span(tracer_, "cfg.unroll", id_);
    UnrollLoops(alias->program.get(), options_.precision.loop_unroll);
  }
  {
    Tracer::Scope span(tracer_, "cfg.callgraph", id_);
    alias->call_graph = std::make_unique<CallGraph>(*alias->program);
  }
  {
    Tracer::Scope span(tracer_, "symexec.icfet", id_);
    alias->icfet = BuildIcfet(*alias->program, *alias->call_graph, options_.precision.icfet);
  }
  alias->labels = BuildPointsToGrammar(&alias->grammar, FieldUniverse(*alias->program));
  alias->oracle = std::make_unique<IntervalOracle>(&alias->icfet, OracleOptions(options_));
  alias->timed = std::make_unique<TimedOracle>(alias->oracle.get());
  alias->engine = std::make_unique<GraphEngine>(
      &alias->grammar, alias->timed.get(),
      EngineOptionsFor(options_, runtime_.get(), SubDir(work_dir_, "alias"),
                       options_.observability.witness == obs::WitnessMode::kFull));
  {
    Tracer::Scope span(tracer_, "analysis.alias_graph", id_);
    alias->graph = std::make_unique<AliasGraph>(*alias->program, *alias->call_graph,
                                                alias->icfet, alias->labels,
                                                alias->engine.get());
  }
  {
    Tracer::Scope span(tracer_, "graph.alias_finalize", id_);
    alias->engine->Finalize(alias->graph->num_vertices());
  }
  {
    Tracer::Scope span(tracer_, "graph.alias_run", id_);
    alias->engine->Run();
  }
  std::unordered_set<VertexId> receivers;
  for (const auto& clone : alias->graph->clones()) {
    for (const auto& occ : clone.events) {
      receivers.insert(occ.receiver_vertex);
    }
  }
  {
    Tracer::Scope span(tracer_, "analysis.alias_index", id_);
    alias->index =
        std::make_unique<AliasIndex>(alias->engine.get(), alias->labels.flows_to, receivers);
  }
  AddEngine(*alias->engine);
  AddOracle(*alias->oracle, &counters_);
  counters_["graph.alias_final_edges"] = static_cast<double>(alias->engine->stats().final_edges);
  counters_["graph.alias_partitions"] =
      static_cast<double>(alias->engine->stats().peak_partitions);
  counters_["graph.oracle_merge_calls"] += static_cast<double>(alias->timed->calls());
  counters_["graph.oracle_merge_s"] += alias->timed->seconds();
  counters_["graph.oracle_merge_alias_s"] = alias->timed->seconds();
  alias_ = std::move(alias);
}

std::string Pipeline::CheckAll(std::map<std::string, std::vector<BugReport>>* per_checker) {
  const AliasPhase& alias = *alias_;
  std::string suffix = check_runs_ == 0 ? "" : "-r" + std::to_string(check_runs_);
  ++check_runs_;
  std::vector<BugReport> all;
  for (const FsmSpec& spec : AllBuiltinCheckers()) {
    const std::string& name = spec.fsm.name();
    std::unordered_set<std::string> types(spec.tracked_types.begin(), spec.tracked_types.end());
    std::vector<uint32_t> tracked;
    for (uint32_t i = 0; i < alias.graph->objects().size(); ++i) {
      if (types.count(alias.graph->objects()[i].type) > 0) {
        tracked.push_back(i);
      }
    }
    Fsm completed = CompleteFsm(spec.fsm);
    Grammar grammar;
    TypestateLabels labels = BuildTypestateGrammar(&grammar, completed);
    IntervalOracle oracle(&alias.icfet, OracleOptions(options_));
    TimedOracle timed(&oracle);
    GraphEngine engine(&grammar, &timed,
                       EngineOptionsFor(options_, runtime_.get(),
                                        SubDir(work_dir_, "typestate-" + name + suffix),
                                        options_.observability.witness != obs::WitnessMode::kOff));
    std::unique_ptr<TypestateGraph> graph;
    {
      Tracer::Scope span(tracer_, "analysis.typestate_graph", id_ + "/" + name);
      graph = std::make_unique<TypestateGraph>(*alias.graph, *alias.index, completed, labels,
                                               tracked, &engine,
                                               options_.precision.qualify_events_with_alias_paths);
    }
    {
      Tracer::Scope span(tracer_, "checker.typestate_run", id_ + "/" + name);
      engine.Finalize(graph->num_vertices());
      engine.Run();
    }
    std::vector<BugReport> reports;
    {
      Tracer::Scope span(tracer_, "checker.extract", id_ + "/" + name);
      reports = ExtractReports(name, completed, labels, *graph, *alias.graph, &engine, &oracle,
                               options_.observability.witness);
    }
    AddEngine(engine);
    AddOracle(oracle, &counters_);
    counters_["graph.oracle_merge_calls"] += static_cast<double>(timed.calls());
    counters_["graph.oracle_merge_s"] += timed.seconds();
    counters_["checker.reports"] += static_cast<double>(reports.size());
    all.insert(all.end(), reports.begin(), reports.end());
    if (per_checker != nullptr) {
      (*per_checker)[name] = std::move(reports);
    }
  }
  Tracer::Scope span(tracer_, "checker.render", id_);
  return ReportsToJson(all) + "\n";
}

std::map<std::string, double> Pipeline::Counters() const {
  std::map<std::string, double> out = counters_;
  TaskRuntimeStats stats = runtime_->Stats();
  out["support.runtime_fg_busy_s"] =
      static_cast<double>(stats.busy_ns[static_cast<size_t>(TaskLane::kForeground)]) * 1e-9;
  out["support.runtime_steals"] = static_cast<double>(stats.steals);
  return out;
}

}  // namespace yardstick
