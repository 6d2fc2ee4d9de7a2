// yardstick: the benchmark every performance change to Grapple is judged by.
//
//   yardstick --workload batch-inmem|batch-spill|service-warm --seed N
//             --seconds S --trace 0|1 --work DIR --out DIR
//
// Prints a human-readable ledger, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ledger. See README.md in this directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "src/obs/json.h"
#include "src/support/task_runtime.h"
#include "yardstick/common.h"
#include "yardstick/workloads.h"

extern char** environ;

namespace yardstick {

// {name, unit}; the order is the order of the printed ledger.
const char* const kLedgerMetrics[][2] = {
    {"ir.parse_s", "s"},
    {"cfg.unroll_s", "s"},
    {"cfg.callgraph_s", "s"},
    {"symexec.icfet_s", "s"},
    {"analysis.alias_graph_s", "s"},
    {"analysis.base_edges", "count"},
    {"analysis.alias_index_s", "s"},
    {"analysis.typestate_graph_s", "s"},
    {"graph.alias_finalize_s", "s"},
    {"graph.alias_run_s", "s"},
    {"graph.joins", "count"},
    {"graph.edges_added", "count"},
    {"graph.joins_per_edge", "ratio"},
    {"graph.alias_final_edges", "count"},
    {"graph.pair_loads", "count"},
    {"graph.splits", "count"},
    {"graph.peak_partitions", "count"},
    {"graph.io_bytes", "bytes"},
    {"graph.io_s", "s"},
    {"graph.oracle_merge_calls", "count"},
    {"graph.oracle_merge_s", "s"},
    {"graph.oracle_busy_frac", "fraction"},
    {"pathenc.lookup_s", "s"},
    {"pathenc.cache_hit_ratio", "fraction"},
    {"smt.solves", "count"},
    {"smt.solve_s", "s"},
    {"smt.unsat_frac", "fraction"},
    {"support.runtime_fg_busy_s", "s"},
    {"support.runtime_steals", "count"},
    {"checker.typestate_run_s", "s"},
    {"checker.extract_s", "s"},
    {"checker.reports", "count"},
    {"checker.render_s", "s"},
    {"checker.reports_budget_divergent", "count"},
    {"service.queue_ms_p50", "ms"},
    {"service.check_ms_p50", "ms"},
    {"service.other_ms_p50", "ms"},
    {"service.warm_hit_ratio", "fraction"},
    {"service.rejected", "count"},
    {"service.dirs_per_req", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
    {nullptr, nullptr},
};

const char* const kBatchSubjects[4] = {"zookeeper", "hadoop", "hdfs", "hbase"};

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Full-precision JSON number (NaN/inf cannot occur in a valid ledger; they
// print as 0 so the line stays parseable and the self-check still runs).
std::string Number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "yardstick: %s\nusage: yardstick --workload batch-inmem|batch-spill|service-warm "
               "--seed N --seconds S --trace 0|1 --work DIR --out DIR\n",
               why);
  return 2;
}

}  // namespace

void DeriveRatios(std::map<std::string, double>* ledger, size_t shards) {
  std::map<std::string, double>& l = *ledger;
  l["graph.joins_per_edge"] = Ratio(l["graph.joins"], l["graph.edges_added"]);
  l["pathenc.cache_hit_ratio"] =
      Ratio(l["oracle.cache_hits"], l["oracle.cache_hits"] + l["smt.solves"]);
  l["smt.unsat_frac"] = Ratio(l["oracle.unsat"], l["smt.solves"]);
  l["graph.oracle_busy_frac"] = Ratio(l["graph.oracle_merge_alias_s"],
                                      l["graph.alias_run_s"] * static_cast<double>(shards));
}

std::map<std::string, double> MedianLedger(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& sample : samples) {
    for (const auto& [name, value] : sample) {
      columns[name].push_back(value);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : columns) {
    out[name] = Median(values);
  }
  return out;
}

void PutLedger(const std::map<std::string, double>& ledger, RunResult* result) {
  auto value_of = [&](const std::string& name) {
    auto it = ledger.find(name);
    return it == ledger.end() ? 0.0 : it->second;
  };
  for (size_t i = 0; kLedgerMetrics[i][0] != nullptr; ++i) {
    result->Put(kLedgerMetrics[i][0], value_of(kLedgerMetrics[i][0]), kLedgerMetrics[i][1]);
  }
  for (const char* subject : kBatchSubjects) {
    for (const char* key : {"graph.joins", "graph.splits", "graph.alias_final_edges"}) {
      std::string name = std::string(key) + "." + subject;
      result->Put(name, value_of(name), "count");
    }
  }
}

std::string EffectiveOptionsJson(const RunArgs& args, const grapple::GrappleOptions& session,
                                 const grapple::ServiceOptions* service) {
  grapple::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").UInt(args.seed);
  w.Key("seconds").Double(args.seconds);
  w.Key("trace").Bool(args.trace);
  w.Key("memory_budget_bytes").UInt(session.engine.memory_budget_bytes);
  w.Key("num_threads").UInt(session.scheduling.num_threads);
  w.Key("checker_parallelism").UInt(session.scheduling.checker_parallelism);
  w.Key("steal_policy").String(grapple::StealPolicyName(session.scheduling.steal_policy));
  w.Key("io_pipeline").Bool(session.engine.io_pipeline);
  w.Key("witness").String(grapple::obs::WitnessModeName(session.observability.witness));
  w.Key("checkpoint_interval").UInt(session.robustness.checkpoint_interval);
  w.Key("max_variants_per_triple").UInt(session.engine.max_variants_per_triple);
  w.Key("cache_capacity").UInt(session.engine.cache_capacity);
  w.Key("loop_unroll").UInt(session.precision.loop_unroll);
  if (service != nullptr) {
    w.Key("max_resident_sessions").UInt(service->max_resident_sessions);
    w.Key("admission_capacity").UInt(service->admission_capacity);
    w.Key("checker_slots").UInt(service->checker_slots);
    w.Key("worker_threads").UInt(service->worker_threads);
    w.Key("handler_threads").UInt(service->handler_threads);
  }
  w.EndObject();
  return w.Take();
}

}  // namespace yardstick

int main(int argc, char** argv) {
  using namespace yardstick;

  // Environment hygiene: GRAPPLE_THREADS, GRAPPLE_WITNESS, GRAPPLE_IO_PIPELINE,
  // GRAPPLE_STEAL, GRAPPLE_CHECKPOINT* and friends silently override options
  // when a session or engine is constructed, so one stray export would
  // measure a different program.
  std::string overrides;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GRAPPLE_", 8) == 0) {
      const char* eq = std::strchr(*env, '=');
      overrides += (overrides.empty() ? "" : ", ") +
                   std::string(*env, eq == nullptr ? std::strlen(*env) : eq - *env);
    }
  }
  if (!overrides.empty()) {
    std::fprintf(stderr,
                 "yardstick: GrappleEnvOverride: %s set; GRAPPLE_* variables override session "
                 "and engine options, so this run would measure a different program. Unset "
                 "them and rerun.\n",
                 overrides.c_str());
    return 3;
  }

  RunArgs args;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--work") args.work_dir = value;
    else if (flag == "--out") args.out_dir = value;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1) || args.seconds <= 0 ||
      args.work_dir.empty() || args.out_dir.empty()) {
    return Usage("missing or malformed arguments");
  }
  args.trace = trace == 1;

  RunResult result;
  try {
    MakeDirs(args.work_dir);
    MakeDirs(args.out_dir);
    if (args.workload == "batch-inmem") {
      result = RunBatch(args, /*spill=*/false);
    } else if (args.workload == "batch-spill") {
      result = RunBatch(args, /*spill=*/true);
    } else if (args.workload == "service-warm") {
      result = RunServiceWarm(args);
    } else {
      return Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yardstick: %s\n", e.what());
    return 1;
  }

  for (const auto& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& error : result.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("metric: %-36s %16.6f %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::string line = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
            Number(metric.first) + ", \"unit\": \"" + metric.second + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  // A run with a wrong output or an invalid workload is not a measurement.
  return result.correct ? 0 : 2;
}
