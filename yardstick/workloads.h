// The three yardstick workloads and the result every run prints.
#ifndef GRAPPLE_YARDSTICK_WORKLOADS_H_
#define GRAPPLE_YARDSTICK_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/grapple.h"
#include "src/service/service.h"

namespace yardstick {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch for sessions and the service work root
  std::string out_dir;   // where the traced run writes its span file
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  // name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
  // Human-readable ledger lines printed before the result line.
  std::vector<std::string> notes;

  void Fail(const std::string& why, uint64_t verdicts = 1) {
    failed += verdicts;
    correct = false;
    if (errors.size() < 8) {
      errors.push_back(why);
    }
  }
  void Put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

// Options every workload reports with its results (GRAPPLE_* overrides are
// refused up front, so these are the options the program really ran with).
std::string EffectiveOptionsJson(const RunArgs& args, const grapple::GrappleOptions& session,
                                 const grapple::ServiceOptions* service);

// batch-inmem / batch-spill: the seeded suite, IR text to report JSON, at
// the default budget or at per-subject budgets that force repartitioning.
RunResult RunBatch(const RunArgs& args, bool spill);

// service-warm: open-loop POST /check over loopback against warm sessions.
RunResult RunServiceWarm(const RunArgs& args);

// The service.* and loadgen.* ledger entries from a short service-warm
// window (`seconds`, half of it traced through the envelope), so that a
// batch workload's traced run also measures the service layers.
std::map<std::string, double> WarmServiceLayers(const RunArgs& args, double seconds,
                                                RunResult* result);

// Adds the ratio metrics (joins per edge, cache hit ratio, unsat fraction,
// oracle busy fraction) to a ledger of raw sums.
void DeriveRatios(std::map<std::string, double>* ledger, size_t shards);

// Emits every per-layer metric of the ledger, 0 for layers that do not run
// on this workload, plus the per-preset batch counters.
void PutLedger(const std::map<std::string, double>& ledger, RunResult* result);

// Median of each ledger entry over samples (one sample per suite pass or
// per request).
std::map<std::string, double> MedianLedger(
    const std::vector<std::map<std::string, double>>& samples);

// The batch suite's preset names, which key the per-preset counters.
extern const char* const kBatchSubjects[4];

}  // namespace yardstick

#endif  // GRAPPLE_YARDSTICK_WORKLOADS_H_
