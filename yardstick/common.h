// Shared pieces of the yardstick benchmark: seeded subject suites with
// generator ground truth, the verdict check, an in-memory span tracer, and
// small statistics / filesystem helpers.
//
// The benchmark drives Grapple from outside: it hands the program only IR
// text generated from the run seed, times calls into public entry points,
// and reads the counters those modules already return.
#ifndef GRAPPLE_YARDSTICK_COMMON_H_
#define GRAPPLE_YARDSTICK_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/checker/checker.h"
#include "src/core/grapple.h"
#include "src/workload/workload.h"

namespace yardstick {

// One generated subject: the IR text the program sees, plus the generator's
// ground truth with allocation lines rewritten to the text's own line
// numbers (the parser numbers statements by text line).
struct Subject {
  std::string name;   // preset name, e.g. "hadoop"
  std::string label;  // preset@scale#index, e.g. "hadoop@0.50#1"
  std::string text;
  grapple::Workload truth;  // patterns only; the program is dropped
};

// Parses "zookeeper@1.0,hadoop@0.5,..." into subjects generated from
// `seed`. Each subject's generator seed mixes the run seed with the
// preset's own seed and the item's position, so one run seed fixes the
// whole suite and repeated presets are distinct subjects. Throws
// std::runtime_error on an unknown preset or a round-trip mismatch.
std::vector<Subject> MakeSuite(const std::string& spec, uint64_t seed);

// Ground-truth check of one checker's reports (ClassifyReports): a verdict
// fails on any false negative, any false positive outside the designed
// fp-trap patterns, or any report on a line with no injected pattern.
// Returns an empty string when the verdict is correct, else the reason.
std::string VerdictError(const Subject& subject, const std::string& checker,
                         const std::vector<grapple::BugReport>& reports);

// One CLI-style verdict through the facade, as `analyze_file --json` runs
// it: parse, construct the session, Check() with the four built-in
// checkers, render. `seconds` runs from IR text in to report JSON out;
// `disk_bytes` is what the session left in `dir` after teardown.
struct Verdict {
  double seconds = 0;
  std::string body;
  uint64_t disk_bytes = 0;
  size_t alias_partitions = 0;  // peak partitions of the alias closure
  std::map<std::string, std::vector<grapple::BugReport>> per_checker;
};

// Runs the verdict in `dir` (created if missing). Throws std::runtime_error
// on a parse error or a degraded checker.
Verdict FacadeVerdict(const Subject& subject, const grapple::GrappleOptions& options,
                      const std::string& dir);

// Monotonic nanoseconds since process start of the benchmark clock.
int64_t NowNs();
inline double SecondsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

// In-memory span recorder. Spans nest through an explicit stack on the
// recording thread (Scope), or are recorded whole with an explicit parent
// from any thread (Record). Written out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into spans(), -1 for roots
    std::string id;       // subject or request id
  };

  // RAII span on the calling thread's nesting stack. A null tracer makes
  // the scope a no-op, so one code path serves traced and untraced runs.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, const std::string& id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  // Thread-safe; returns the new span's index.
  int64_t Record(const std::string& name, int64_t start_ns, int64_t end_ns, int64_t parent,
                 const std::string& id);

  // Sum of span durations by name, and of self time (duration minus the
  // union of direct children, which never overlap here), over spans with
  // index >= `from`.
  std::map<std::string, double> TotalSeconds(size_t from = 0) const;
  std::map<std::string, double> SelfSeconds(size_t from = 0) const;

  size_t size() const;
  // Chrome trace-event JSON ("X" events; args carry parent and id).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

// Statistics over samples (copies; inputs may be unsorted).
double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

// Recursive size of regular files under `path`, in bytes.
uint64_t TreeBytes(const std::string& path);
// Number of directories under `path` (not counting `path` itself).
uint64_t TreeDirs(const std::string& path);
void MakeDirs(const std::string& path);
// Flushes dirty file data and metadata, then pauses a second for the device
// to finish (trims of deleted files included), so that one phase's file
// churn does not land in the next phase's timed window.
void SettleDisk();

// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace yardstick

#endif  // GRAPPLE_YARDSTICK_COMMON_H_
