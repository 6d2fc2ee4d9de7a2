#include "yardstick/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/ir/parser.h"
#include "src/obs/json.h"

namespace yardstick {

using grapple::Program;
using grapple::Stmt;
using grapple::StmtKind;
using grapple::WorkloadConfig;

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void CollectAllocs(const std::vector<Stmt>& block, std::vector<const Stmt*>* out) {
  for (const auto& stmt : block) {
    if (stmt.kind == StmtKind::kAlloc) {
      out->push_back(&stmt);
    }
    CollectAllocs(stmt.then_block, out);
    CollectAllocs(stmt.else_block, out);
  }
}

std::vector<const Stmt*> Allocs(const Program& program) {
  std::vector<const Stmt*> out;
  for (const auto& method : program.methods()) {
    CollectAllocs(method.body, &out);
  }
  return out;
}

WorkloadConfig PresetByName(const std::string& name, double scale) {
  if (name == "zookeeper") return grapple::ZooKeeperPreset(scale);
  if (name == "hadoop") return grapple::HadoopPreset(scale);
  if (name == "hdfs") return grapple::HdfsPreset(scale);
  if (name == "hbase") return grapple::HBasePreset(scale);
  throw std::runtime_error("unknown preset '" + name + "'");
}

Subject MakeSubject(const std::string& name, double scale, uint64_t seed, size_t index) {
  WorkloadConfig config = PresetByName(name, scale);
  config.seed = SplitMix64(SplitMix64(seed) ^ (config.seed + 1000003ull * index));
  grapple::Workload generated = grapple::GenerateWorkload(config);

  Subject subject;
  subject.name = name;
  char label[64];
  std::snprintf(label, sizeof(label), "%s@%.2f#%zu", name.c_str(), scale, index);
  subject.label = label;
  subject.text = generated.program.ToString();

  // Map the generator's synthetic allocation lines onto text lines: the
  // printer emits one statement per line in block order, so the k-th
  // allocation of the generated program is the k-th of the parsed one.
  grapple::ParseResult parsed = grapple::ParseProgram(subject.text);
  if (!parsed.ok) {
    throw std::runtime_error(subject.label + " does not re-parse: " + parsed.error);
  }
  std::vector<const Stmt*> before = Allocs(generated.program);
  std::vector<const Stmt*> after = Allocs(parsed.program);
  if (before.size() != after.size()) {
    throw std::runtime_error(subject.label + ": allocation count changed across the IR text");
  }
  std::unordered_map<int32_t, int32_t> line_of;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i]->type_name != after[i]->type_name) {
      throw std::runtime_error(subject.label + ": allocation order changed across the IR text");
    }
    line_of[before[i]->source_line] = after[i]->source_line;
  }
  subject.truth.config = generated.config;
  subject.truth.total_statements = generated.total_statements;
  subject.truth.patterns = generated.patterns;
  for (auto& pattern : subject.truth.patterns) {
    auto it = line_of.find(pattern.alloc_line);
    if (it == line_of.end()) {
      throw std::runtime_error(subject.label + ": pattern allocation line not found");
    }
    pattern.alloc_line = it->second;
  }
  return subject;
}

}  // namespace

std::vector<Subject> MakeSuite(const std::string& spec, uint64_t seed) {
  std::vector<Subject> suite;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    size_t at = item.find('@');
    if (at == std::string::npos) {
      throw std::runtime_error("suite item '" + item + "' is not preset@scale");
    }
    suite.push_back(
        MakeSubject(item.substr(0, at), std::stod(item.substr(at + 1)), seed, suite.size()));
  }
  return suite;
}

std::string VerdictError(const Subject& subject, const std::string& checker,
                         const std::vector<grapple::BugReport>& reports) {
  grapple::Classification cls = grapple::ClassifyReports(subject.truth, checker, reports);
  if (cls.false_negatives > 0) {
    return subject.label + "/" + checker + ": " + std::to_string(cls.false_negatives) +
           " false negative(s)";
  }
  if (!cls.unmatched_reports.empty()) {
    return subject.label + "/" + checker + ": " + cls.unmatched_reports.front();
  }
  return "";
}

Verdict FacadeVerdict(const Subject& subject, const grapple::GrappleOptions& options,
                      const std::string& dir) {
  MakeDirs(dir);
  grapple::GrappleOptions session_options = options;
  session_options.work_dir = dir;
  Verdict verdict;
  int64_t begin = NowNs();
  {
    grapple::ParseResult parsed = grapple::ParseProgram(subject.text);
    if (!parsed.ok) {
      throw std::runtime_error(subject.label + ": parse error: " + parsed.error);
    }
    grapple::Grapple session(std::move(parsed.program), session_options);
    grapple::GrappleResult result = session.Check(grapple::AllBuiltinCheckers());
    std::vector<grapple::BugReport> all;
    for (auto& checker : result.checkers) {
      if (checker.degraded) {
        throw std::runtime_error(subject.label + ": checker " + checker.checker +
                                 " degraded: " + checker.degraded_reason);
      }
      all.insert(all.end(), checker.reports.begin(), checker.reports.end());
      verdict.per_checker[checker.checker] = std::move(checker.reports);
    }
    verdict.body = grapple::ReportsToJson(all) + "\n";
    verdict.seconds = SecondsBetween(begin, NowNs());
    verdict.alias_partitions = result.alias.engine.peak_partitions;
  }
  verdict.disk_bytes = TreeBytes(dir);
  return verdict;
}

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const std::string& name, const std::string& id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  index_ = tracer_->spans_.size();
  Span span;
  span.name = name;
  span.id = id;
  span.parent = tracer_->stack_.empty() ? -1 : static_cast<int64_t>(tracer_->stack_.back());
  tracer_->spans_.push_back(std::move(span));
  tracer_->stack_.push_back(index_);
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[index_].end_ns = end;
  tracer_->stack_.pop_back();
}

int64_t Tracer::Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::TotalSeconds(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] += SecondsBetween(spans_[i].start_ns, spans_[i].end_ns);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSeconds(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = from; i < spans_.size(); ++i) {
    self[i] += SecondsBetween(spans_[i].start_ns, spans_[i].end_ns);
    int64_t parent = spans_[i].parent;
    if (parent >= static_cast<int64_t>(from)) {
      self[static_cast<size_t>(parent)] -= SecondsBetween(spans_[i].start_ns, spans_[i].end_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  grapple::obs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.Key("name").String(span.name);
    w.Key("ph").String("X");
    w.Key("pid").Int(1);
    w.Key("tid").Int(1);
    w.Key("ts").Double(static_cast<double>(span.start_ns) / 1e3);
    w.Key("dur").Double(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    w.Key("args").BeginObject();
    w.Key("index").UInt(i);
    w.Key("parent").Int(span.parent);
    w.Key("id").String(span.id);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

uint64_t TreeBytes(const std::string& path) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

uint64_t TreeDirs(const std::string& path) {
  std::error_code ec;
  uint64_t dirs = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_directory(ec)) {
      ++dirs;
    }
  }
  return dirs;
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("cannot create " + path + ": " + ec.message());
  }
}

void SettleDisk() {
  ::sync();
  ::sleep(1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace yardstick
