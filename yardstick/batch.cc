// batch-inmem and batch-spill: the CLI user's job. Every subject of the
// seeded suite goes from IR text to report JSON through a fresh Grapple
// session (cold: frontend, alias closure, four checkers, render).
//
// Set-up generates the suite and runs one reference verdict per subject at
// the default 64 MB budget, checked against the generator's ground truth.
// batch-spill gives each subject a budget pinned per preset, small enough
// that every subject's alias closure runs out of core. Every verdict is
// checked against the ground truth, all verdicts of a subject at one budget
// — traced or not — must be byte-identical, and every alias closure must run
// in one partition (batch-inmem) or in several (batch-spill) as its workload
// claims; the traced run counts reports that differ from the 64 MB
// reference.
#include <algorithm>
#include <cstdio>
#include <map>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "yardstick/common.h"
#include "yardstick/pipeline.h"
#include "yardstick/workloads.h"

namespace yardstick {

using grapple::BugReport;
using grapple::GrappleOptions;

namespace {

// Four presets, several seeded subjects each. hadoop@0.2, whose closure
// size varies least with the seed, carries most of the closure work; the
// branching shapes stay below the scales at which their closure cost turns
// heavy-tailed in the seed. Averaged over 24 subjects the suite's cost is
// steady across seeds.
constexpr char kBatchSuite[] =
    "zookeeper@0.3,hadoop@0.2,hadoop@0.2,hadoop@0.2,hdfs@0.1,hbase@0.12,"
    "zookeeper@0.3,hadoop@0.2,hadoop@0.2,hadoop@0.2,hdfs@0.1,hbase@0.12,"
    "zookeeper@0.3,hadoop@0.2,hadoop@0.2,hadoop@0.2,hdfs@0.1,hbase@0.12,"
    "zookeeper@0.3,hadoop@0.2,hadoop@0.2,hadoop@0.2,hdfs@0.1,hbase@0.12";
constexpr uint64_t kInMemoryBudget = uint64_t{64} << 20;
// batch-spill's budget per subject, by preset. The budgets are pinned rather
// than sized from a run, so that a change to the program cannot change the
// workload. The small presets get about 12 bytes per final alias edge of
// their typical closure (zookeeper@0.3 ~850 edges, hdfs@0.1 ~700,
// hbase@0.12 ~2,000), hadoop@0.2 about 21 (~24,400 edges): every subject's
// alias closure ends in 4 or more partitions, most after splitting. The few
// hadoop@0.2 subjects the seed makes heavy (33,000-58,000 edges) split more
// often; a smaller hadoop budget would multiply their cost.
const std::map<std::string, uint64_t> kSpillBudgets = {
    {"zookeeper", 10 << 10}, {"hadoop", 512 << 10}, {"hdfs", 8 << 10}, {"hbase", 24 << 10}};
constexpr size_t kJoinShards = 4;
constexpr int kSetupRepeats = 3;
// batch-inmem's traced run ends with a short warm-service window so the
// service layers are measured too (service-warm itself is not gated).
constexpr double kServiceLayerSeconds = 8;

// Checks one verdict: each checker's reports against the generator's ground
// truth, the whole body against `expected` (adopted from the first verdict
// when still empty), and the alias closure's peak partition count against
// the workload (`spill`: several; otherwise one). Each checker's verdict is
// one attempted operation; a wrong body or partition count fails all of them.
void CheckVerdict(const Subject& subject,
                  const std::map<std::string, std::vector<BugReport>>& per_checker,
                  const std::string& body, size_t alias_partitions, bool spill,
                  std::string* expected, RunResult* result) {
  std::string whole_error;
  if (expected->empty()) {
    *expected = body;
  } else if (body != *expected) {
    whole_error = subject.label + ": report JSON differs from this run's earlier bytes";
  }
  if (spill ? alias_partitions < 2 : alias_partitions != 1) {
    whole_error = subject.label + ": invalid run: its alias closure ran in " +
                  std::to_string(alias_partitions) + " partition(s) on " +
                  (spill ? "batch-spill" : "batch-inmem");
  }
  for (const auto& spec : grapple::AllBuiltinCheckers()) {
    const std::string& name = spec.fsm.name();
    result->attempted += 1;
    auto it = per_checker.find(name);
    std::string error = it == per_checker.end() ? subject.label + "/" + name + ": no result"
                                                : VerdictError(subject, name, it->second);
    if (!error.empty() || !whole_error.empty()) {
      result->Fail(error.empty() ? whole_error : error);
    }
  }
}

// Reports, in body order, each rendered alone.
std::vector<std::string> ReportJsons(
    const std::map<std::string, std::vector<BugReport>>& per_checker) {
  std::vector<std::string> out;
  for (const auto& spec : grapple::AllBuiltinCheckers()) {
    auto it = per_checker.find(spec.fsm.name());
    if (it != per_checker.end()) {
      for (const auto& report : it->second) {
        out.push_back(grapple::ReportToJson(report));
      }
    }
  }
  return out;
}

// Reports that differ from the in-memory reference's (by position; a
// different report count makes every report count as different).
size_t DivergentReports(const std::vector<std::string>& got,
                        const std::vector<std::string>& reference) {
  if (got.size() != reference.size()) {
    return std::max(got.size(), reference.size());
  }
  size_t differ = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    differ += got[i] != reference[i] ? 1 : 0;
  }
  return differ;
}

}  // namespace

RunResult RunBatch(const RunArgs& args, bool spill) {
  RunResult result;
  GrappleOptions options;
  options.engine.memory_budget_bytes = kInMemoryBudget;
  options.scheduling.num_threads = kJoinShards;
  result.notes.push_back("options: " + EffectiveOptionsJson(args, options, nullptr));
  result.notes.push_back(std::string("suite: ") + kBatchSuite +
                         " (generator seeds mixed with --seed " + std::to_string(args.seed) +
                         ")");
  // Verdict dirs stay until the run is over: deletes slow later file
  // creation down for seconds, so none may happen before or inside a window.
  uint64_t verdict_id = 0;
  auto next_dir = [&] { return args.work_dir + "/v" + std::to_string(verdict_id++); };

  // Set-up, several times: generate the suite and run and verify one 64 MB
  // reference verdict per subject.
  std::vector<double> setup_s;
  std::vector<Subject> suite;
  std::vector<std::string> expected;  // bodies every verdict must reproduce
  std::vector<std::vector<std::string>> reference_reports;  // 64 MB, per subject
  std::vector<GrappleOptions> run_options;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    int64_t begin = NowNs();
    suite = MakeSuite(kBatchSuite, args.seed);
    expected.assign(suite.size(), "");
    reference_reports.clear();
    run_options.clear();
    for (size_t i = 0; i < suite.size(); ++i) {
      std::string reference;
      Verdict verdict = FacadeVerdict(suite[i], options, next_dir());
      CheckVerdict(suite[i], verdict.per_checker, verdict.body, verdict.alias_partitions, false,
                   &reference, &result);
      reference_reports.push_back(ReportJsons(verdict.per_checker));
      // Reports are meant to be identical across budgets, but batch-spill
      // only counts divergence from the in-memory bytes (a known defect,
      // see README.md); its verdicts must agree among themselves.
      expected[i] = spill ? "" : reference;
      run_options.push_back(options);
      if (spill) {
        run_options.back().engine.memory_budget_bytes = kSpillBudgets.at(suite[i].name);
      }
    }
    setup_s.push_back(SecondsBetween(begin, NowNs()));
  }
  if (spill) {
    std::string budgets = "spill budgets (bytes, by preset):";
    for (const auto& [preset, bytes] : kSpillBudgets) {
      budgets += " " + preset + "=" + std::to_string(bytes);
    }
    result.notes.push_back(budgets);
  }

  uint64_t verdicts = 0;
  uint64_t disk_bytes = 0;
  auto facade_pass = [&] {
    double pass_s = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
      Verdict verdict = FacadeVerdict(suite[i], run_options[i], next_dir());
      CheckVerdict(suite[i], verdict.per_checker, verdict.body, verdict.alias_partitions, spill,
                   &expected[i], &result);
      pass_s += verdict.seconds;
      disk_bytes += verdict.disk_bytes;
      ++verdicts;
    }
    return pass_s;
  };

  SettleDisk();
  int64_t window_begin = NowNs();
  auto window_open = [&] { return SecondsBetween(window_begin, NowNs()) < args.seconds; };
  char line[200];

  if (!args.trace) {
    // A batch request is one pass over the suite, the CI job, so on the
    // batch workloads req_p50_ms is verdict_s in ms and req_p99_ms the
    // slowest pass. Percentiles over subjects would report the seed's
    // heaviest subject instead.
    std::vector<double> pass_s;
    std::vector<double> pass_ms;
    while (pass_s.empty() || window_open()) {
      pass_s.push_back(facade_pass());
      pass_ms.push_back(pass_s.back() * 1e3);
    }
    std::snprintf(line, sizeof(line),
                  "window: %zu suite passes (the req_p50/p99 samples), %llu verdicts",
                  pass_s.size(), static_cast<unsigned long long>(verdicts));
    result.notes.push_back(line);
    result.Put("setup_s", Median(setup_s), "s");
    result.Put("verdict_s", Median(pass_s), "s");
    result.Put("req_p50_ms", Percentile(pass_ms, 50), "ms");
    result.Put("req_p99_ms", Percentile(pass_ms, 99), "ms");
    result.Put("peak_rss_mb", PeakRssMb(), "MB");
    result.Put("disk_kb_per_check",
               static_cast<double>(disk_bytes) / 1024.0 / static_cast<double>(verdicts), "KB");
    result.Put("ok_frac",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "fraction");
    return result;
  }

  // Traced run: alternate an untraced facade pass with a traced pipeline
  // pass; the pipeline's reports must match the facade's bytes.
  Tracer tracer;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::map<std::string, double>> samples;
  std::map<std::string, double> per_subject;             // last traced pass, by preset
  std::vector<std::string> subject_lines(suite.size());  // last traced pass
  while (traced_s.empty() || window_open()) {
    untraced_s.push_back(facade_pass());

    size_t first_span = tracer.size();
    per_subject.clear();
    std::map<std::string, double> ledger;
    double pass_s = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
      const Subject& subject = suite[i];
      std::string dir = next_dir();
      MakeDirs(dir);
      std::map<std::string, std::vector<BugReport>> per_checker;
      std::string body;
      std::unique_ptr<Pipeline> pipeline;
      int64_t begin = NowNs();
      {
        Tracer::Scope root(&tracer, "verdict", subject.label);
        pipeline = std::make_unique<Pipeline>(run_options[i], dir, &tracer, subject.label);
        pipeline->BuildAlias(subject.text);
        body = pipeline->CheckAll(&per_checker);
      }
      double subject_s = SecondsBetween(begin, NowNs());
      pass_s += subject_s;
      std::map<std::string, double> counters = pipeline->Counters();
      pipeline.reset();
      CheckVerdict(subject, per_checker, body,
                   static_cast<size_t>(counters["graph.alias_partitions"]), spill, &expected[i],
                   &result);
      counters["checker.reports_budget_divergent"] =
          static_cast<double>(DivergentReports(ReportJsons(per_checker), reference_reports[i]));
      for (const auto& [name, value] : counters) {
        ledger[name] = name == "graph.peak_partitions" ? std::max(ledger[name], value)
                                                       : ledger[name] + value;
      }
      for (const char* key : {"graph.joins", "graph.splits", "graph.alias_final_edges"}) {
        per_subject[std::string(key) + "." + subject.name] += counters[key];
      }
      std::snprintf(line, sizeof(line),
                    "subject %-20s %8.3f s  joins %10.0f  splits %4.0f  alias edges %9.0f  "
                    "reports off the 64 MB bytes %.0f",
                    subject.label.c_str(), subject_s, counters["graph.joins"],
                    counters["graph.splits"], counters["graph.alias_final_edges"],
                    counters["checker.reports_budget_divergent"]);
      subject_lines[i] = line;
    }
    for (const auto& [name, seconds] : tracer.TotalSeconds(first_span)) {
      ledger[name + "_s"] = seconds;
    }
    DeriveRatios(&ledger, kJoinShards);
    samples.push_back(std::move(ledger));
    traced_s.push_back(pass_s);
  }

  std::map<std::string, double> ledger = MedianLedger(samples);
  ledger.insert(per_subject.begin(), per_subject.end());
  if (!spill) {
    std::map<std::string, double> service = WarmServiceLayers(args, kServiceLayerSeconds, &result);
    ledger.insert(service.begin(), service.end());
  }
  ledger["trace.overhead_frac"] = Median(traced_s) / Median(untraced_s) - 1.0;
  PutLedger(ledger, &result);

  std::snprintf(line, sizeof(line),
                "window: %zu traced, %zu untraced passes; suite %.3f s traced vs %.3f s untraced",
                traced_s.size(), untraced_s.size(), Median(traced_s), Median(untraced_s));
  result.notes.push_back(line);
  for (const auto& [name, self] : tracer.SelfSeconds()) {
    std::snprintf(line, sizeof(line), "self time: %-28s %10.4f s over %zu passes", name.c_str(),
                  self, traced_s.size());
    result.notes.push_back(line);
  }
  result.notes.insert(result.notes.end(), subject_lines.begin(), subject_lines.end());
  std::string trace_path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (tracer.WriteChromeTrace(trace_path)) {
    result.notes.push_back("spans: " + trace_path);
  }
  return result;
}

}  // namespace yardstick
