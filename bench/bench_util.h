// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench regenerates one table or figure of the paper's §5 on the
// synthetic preset subjects. Scale can be overridden with GRAPPLE_SCALE
// (multiplies filler statement counts; bug counts stay fixed).
#ifndef GRAPPLE_BENCH_BENCH_UTIL_H_
#define GRAPPLE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/obs/report.h"
#include "src/support/timer.h"
#include "src/workload/workload.h"

namespace grapple {

inline double ScaleFromEnv(double default_scale) {
  const char* env = std::getenv("GRAPPLE_SCALE");
  if (env == nullptr || *env == '\0') {
    return default_scale;
  }
  double scale = std::atof(env);
  return scale > 0 ? scale : default_scale;
}

struct SubjectRun {
  Workload workload;
  GrappleResult result;
};

inline SubjectRun RunSubject(const WorkloadConfig& config,
                             GrappleOptions options = GrappleOptions()) {
  SubjectRun run;
  run.workload = GenerateWorkload(config);
  Program program = run.workload.program;  // keep a copy with the workload
  Grapple grapple(std::move(program), options);
  run.result = grapple.Check(AllBuiltinCheckers());
  return run;
}

// Figure-9 style cost breakdown; the single implementation lives in
// src/obs/report.h and renders from the run's metrics snapshots, so the
// bench tables and BENCH_*.json files agree by construction.
using CostBreakdown = obs::CostBreakdown;

inline CostBreakdown BreakdownOf(const GrappleResult& result) {
  return result.report.Breakdown();
}

// Attaches one subject's run report (with the subject name) to a bench
// report destined for BENCH_<name>.json.
inline void AddSubject(obs::BenchReport* bench, const std::string& subject,
                       const GrappleResult& result) {
  obs::RunReport report = result.report;
  report.subject = subject;
  bench->Add(std::move(report));
}

// Unsets the named environment variables for its lifetime and restores the
// caller's values afterwards. Env overrides (GRAPPLE_THREADS,
// GRAPPLE_PROFILE, ...) replace options outright at construction, so a
// section that pins or A/Bs an option holds one of these around its runs.
class ScopedEnvUnset {
 public:
  explicit ScopedEnvUnset(std::initializer_list<const char*> names) {
    for (const char* name : names) {
      const char* value = std::getenv(name);
      if (value != nullptr) {
        saved_.emplace_back(name, value);
        unsetenv(name);
      }
    }
  }
  ~ScopedEnvUnset() {
    for (const auto& [name, value] : saved_) {
      setenv(name.c_str(), value.c_str(), 1);
    }
  }
  ScopedEnvUnset(const ScopedEnvUnset&) = delete;
  ScopedEnvUnset& operator=(const ScopedEnvUnset&) = delete;

 private:
  std::vector<std::pair<std::string, std::string>> saved_;
};

inline void PrintHeaderLine(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace grapple

#endif  // GRAPPLE_BENCH_BENCH_UTIL_H_
