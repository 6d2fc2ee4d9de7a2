// service-warm: GrappleService with its shipped defaults serving
// POST /check?fields=reports over loopback to an open loop of at most four
// sender connections. Every (tenant, subject) session is warmed during
// set-up, so the timed window runs typestate, report extraction, render,
// admission, slot, cache and HTTP — never the alias closure.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "src/obs/json.h"
#include "yardstick/common.h"
#include "yardstick/pipeline.h"
#include "yardstick/workloads.h"

namespace yardstick {

using grapple::GrappleOptions;
using grapple::GrappleService;
using grapple::ServiceOptions;

namespace {

constexpr char kServiceSuite[] = "zookeeper@0.1,hdfs@0.05,hbase@0.05";
const char* const kTenants[] = {"alpha", "beta"};
constexpr size_t kSenders = 4;
// Fixed offered load (requests/s, Poisson arrivals): a third to a half of
// the closed-loop warm capacity on a 4-core machine, far enough below it
// that a busier host does not tip the queue into collapse.
constexpr double kRate = 40;
constexpr int kSetupRepeats = 3;
// The sender itself fell behind — it was free but woke late, so the run
// measures the generator, not the program — when the 99th percentile of
// that oversleep exceeds this. Lag from all four connections being busy is
// the system's doing and stays in the latency (timed from the due time).
constexpr double kMaxOversleepP99Ms = 25;

struct Response {
  int status = 0;
  std::string body;
};

// One HTTP/1.0 exchange on a fresh loopback connection (the service closes
// each connection after its response). Status 0 on transport failure.
Response Exchange(int port, const std::string& request) {
  Response out;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return out;
  }
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
      if (n <= 0) {
        break;
      }
      sent += static_cast<size_t>(n);
    }
    char buffer[16384];
    ssize_t n;
    while (sent == request.size() && (n = ::read(fd, buffer, sizeof(buffer))) > 0) {
      raw.append(buffer, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  size_t space = raw.find(' ');
  size_t header_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || space == std::string::npos ||
      header_end == std::string::npos) {
    return out;
  }
  out.status = std::atoi(raw.c_str() + space + 1);
  out.body = raw.substr(header_end + 4);
  return out;
}

std::string CheckRequest(const std::string& tenant, const std::string& subject, bool envelope) {
  return "POST /check?tenant=" + tenant + (envelope ? "" : "&fields=reports") +
         " HTTP/1.0\r\nContent-Length: " + std::to_string(subject.size()) + "\r\n\r\n" + subject;
}

// The sessions' options: the shipped defaults (the service overrides only
// work_dir per session).
GrappleOptions SessionOptions() { return ServiceOptions::FromEnv().session; }

// One set-up: subjects, one-shot references verified against the ground
// truth, a started service, and one warming request per (tenant, subject).
struct Setup {
  std::vector<Subject> subjects;
  std::vector<std::string> expected;  // reference body per subject
  std::unique_ptr<GrappleService> service;
  std::string root;
};

Setup MakeSetup(const RunArgs& args, const std::string& root, RunResult* result) {
  Setup setup;
  setup.root = root;
  setup.subjects = MakeSuite(kServiceSuite, args.seed);
  for (size_t i = 0; i < setup.subjects.size(); ++i) {
    const Subject& subject = setup.subjects[i];
    Verdict reference =
        FacadeVerdict(subject, SessionOptions(), root + "-ref/" + std::to_string(i));
    for (const auto& [checker, reports] : reference.per_checker) {
      result->attempted += 1;
      std::string error = VerdictError(subject, checker, reports);
      if (!error.empty()) {
        result->Fail("reference " + error);
      }
    }
    setup.expected.push_back(reference.body);
  }
  ServiceOptions options = ServiceOptions::FromEnv();
  options.port = 0;
  options.work_root = root;
  MakeDirs(root);
  setup.service = std::make_unique<GrappleService>(options);
  std::string error;
  if (!setup.service->Start(&error)) {
    throw std::runtime_error("service start failed: " + error);
  }
  for (const char* tenant : kTenants) {
    for (size_t i = 0; i < setup.subjects.size(); ++i) {
      Response response = Exchange(setup.service->port(),
                                   CheckRequest(tenant, setup.subjects[i].text, false));
      result->attempted += 1;
      if (response.status != 200 || response.body != setup.expected[i]) {
        result->Fail(std::string("warm-up ") + tenant + "/" + setup.subjects[i].label +
                     ": status " + std::to_string(response.status) + " or body mismatch");
      }
    }
  }
  return setup;
}

struct Arrival {
  int64_t due_ns = 0;  // offset from the window start
  size_t mix = 0;      // index into tenants x subjects
};

struct Outcome {
  double latency_ms = 0;    // from due time to response end
  double lag_ms = 0;        // send time minus due time
  double oversleep_ms = 0;  // send time minus max(due, when a sender was free)
  bool ok = false;
  // From the default envelope (traced half only).
  double queue_ms = 0;
  double check_ms = 0;
};

// Seeded Poisson arrivals at `rate` over `seconds`, each picking a
// (tenant, subject) uniformly.
std::vector<Arrival> Schedule(uint64_t seed, double rate, double seconds, size_t mix_size) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<size_t> pick(0, mix_size - 1);
  std::vector<Arrival> arrivals;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    arrivals.push_back({static_cast<int64_t>(t * 1e9), pick(rng)});
  }
  return arrivals;
}

// Drives one open-loop window: sender threads claim arrivals in order,
// sleep until each is due, and time it from the due time.
std::vector<Outcome> OpenLoop(const Setup& setup, const std::vector<Arrival>& arrivals,
                              bool envelope, Tracer* tracer) {
  std::vector<Outcome> outcomes(arrivals.size());
  size_t subjects = setup.subjects.size();
  std::atomic<size_t> next{0};
  int64_t start = NowNs() + 20'000'000;
  auto clock_zero = std::chrono::steady_clock::now() - std::chrono::nanoseconds(NowNs());
  auto sender = [&] {
    size_t i;
    while ((i = next.fetch_add(1)) < arrivals.size()) {
      int64_t claimed = NowNs();
      const Arrival& arrival = arrivals[i];
      int64_t due = start + arrival.due_ns;
      std::this_thread::sleep_until(clock_zero + std::chrono::nanoseconds(due));
      int64_t sent = NowNs();
      const char* tenant = kTenants[arrival.mix / subjects];
      size_t subject = arrival.mix % subjects;
      Response response = Exchange(setup.service->port(),
                                   CheckRequest(tenant, setup.subjects[subject].text, envelope));
      int64_t done = NowNs();
      Outcome& out = outcomes[i];
      out.latency_ms = static_cast<double>(done - due) * 1e-6;
      out.lag_ms = static_cast<double>(sent - due) * 1e-6;
      out.oversleep_ms = static_cast<double>(sent - std::max(due, claimed)) * 1e-6;
      if (!envelope) {
        out.ok = response.status == 200 && response.body == setup.expected[subject];
      } else if (response.status == 200) {
        // The envelope embeds the reports verbatim; check_seconds includes
        // the session's one-time frontend, which the run report states.
        const std::string& expected = setup.expected[subject];
        std::string reports = "\"reports\":" + expected.substr(0, expected.size() - 1);
        auto doc = grapple::obs::ParseJson(response.body);
        out.ok = doc.has_value() && response.body.find(reports) != std::string::npos;
        if (out.ok) {
          const grapple::obs::JsonValue* report = doc->Find("report");
          double frontend_s = report == nullptr ? 0 : report->NumberOr("frontend_seconds", 0);
          out.queue_ms = doc->NumberOr("queue_ms", 0);
          out.check_ms = (doc->NumberOr("check_seconds", 0) - frontend_s) * 1e3;
        }
      }
      if (tracer != nullptr) {
        std::string id = std::string(tenant) + "/" + setup.subjects[subject].label + "#" +
                         std::to_string(i);
        int64_t root = tracer->Record("request", due, done, -1, id);
        tracer->Record("loadgen.lag", due, sent, root, id);
        tracer->Record("http.exchange", sent, done, root, id);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back(sender);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  return outcomes;
}

void Tally(const std::vector<Arrival>& arrivals, const std::vector<Outcome>& outcomes,
           const Setup& setup, RunResult* result) {
  size_t subjects = setup.subjects.size();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    result->attempted += 1;
    if (!outcomes[i].ok) {
      result->Fail(std::string("request ") + kTenants[arrivals[i].mix / subjects] + "/" +
                   setup.subjects[arrivals[i].mix % subjects].label +
                   " failed (non-200 or body mismatch)");
    }
  }
}

std::vector<double> Column(const std::vector<Outcome>& outcomes, double Outcome::*field) {
  std::vector<double> out;
  for (const auto& outcome : outcomes) {
    out.push_back(outcome.*field);
  }
  return out;
}

// Warm-check layer costs on the service's own subjects, measured after the
// window by the traced pipeline (the service runs exactly these layers per
// warm request: typestate graph, closure and extraction per checker, then
// the render). One sample per subject per round.
std::vector<std::map<std::string, double>> WarmCheckProbe(const Setup& setup,
                                                          const std::string& dir,
                                                          RunResult* result) {
  Tracer tracer;
  std::vector<std::map<std::string, double>> samples;
  for (size_t i = 0; i < setup.subjects.size(); ++i) {
    std::string subject_dir = dir + "/probe" + std::to_string(i);
    MakeDirs(subject_dir);
    {
      Pipeline pipeline(SessionOptions(), subject_dir, &tracer, setup.subjects[i].label);
      pipeline.BuildAlias(setup.subjects[i].text);
      for (int round = 0; round < 3; ++round) {
        size_t first_span = tracer.size();
        std::map<std::string, double> before = pipeline.Counters();
        std::string body = pipeline.CheckAll(nullptr);
        result->attempted += 1;
        if (body != setup.expected[i]) {
          result->Fail(setup.subjects[i].label +
                       ": warm pipeline reports differ from the service's");
        }
        std::map<std::string, double> sample = pipeline.Counters();
        for (const auto& [name, value] : before) {
          if (name != "graph.peak_partitions" && name != "graph.alias_final_edges" &&
              name != "graph.oracle_merge_alias_s") {
            sample[name] -= value;
          }
        }
        sample["graph.alias_final_edges"] = 0;
        sample["graph.oracle_merge_alias_s"] = 0;
        for (const auto& [name, seconds] : tracer.TotalSeconds(first_span)) {
          sample[name + "_s"] = seconds;
        }
        DeriveRatios(&sample, 1);
        samples.push_back(std::move(sample));
      }
    }
  }
  return samples;
}

// The open loop on a warm service: an untraced window of `untraced_s`,
// then, when `traced_s` > 0, one of `traced_s` that requests the default
// envelope and records spans. Counts every request, checks the generator
// kept its schedule, and leaves the service.* and loadgen.* ledger entries
// in `ledger`.
struct Windows {
  std::vector<Arrival> arrivals;  // of the untraced window
  std::vector<Outcome> untraced;
  std::vector<Outcome> traced;
  uint64_t root_bytes = 0;  // under the work root once the windows end
  uint64_t checks = 0;      // checks the service completed, set-up included
};

Windows MeasureWarmService(const RunArgs& args, const Setup& setup, double untraced_s,
                           double traced_s, Tracer* tracer, std::map<std::string, double>* ledger,
                           RunResult* result) {
  Windows w;
  SettleDisk();
  size_t mix_size = std::size(kTenants) * setup.subjects.size();
  grapple::ServiceStats before = setup.service->Stats();
  uint64_t dirs_before = TreeDirs(setup.root);
  w.arrivals = Schedule(args.seed, kRate, untraced_s, mix_size);
  w.untraced = OpenLoop(setup, w.arrivals, false, nullptr);
  Tally(w.arrivals, w.untraced, setup, result);
  if (traced_s > 0) {
    SettleDisk();
    std::vector<Arrival> arrivals = Schedule(args.seed + 1, kRate, traced_s, mix_size);
    w.traced = OpenLoop(setup, arrivals, true, tracer);
    Tally(arrivals, w.traced, setup, result);
  }
  grapple::ServiceStats after = setup.service->Stats();
  w.root_bytes = TreeBytes(setup.root);
  w.checks = after.warm_hits + after.cold_misses + after.bypasses;
  uint64_t dirs_after = TreeDirs(setup.root);

  std::vector<Outcome> all = w.untraced;
  all.insert(all.end(), w.traced.begin(), w.traced.end());
  double lag_p99 = Percentile(Column(all, &Outcome::lag_ms), 99);
  double oversleep_p99 = Percentile(Column(all, &Outcome::oversleep_ms), 99);
  char line[240];
  std::snprintf(line, sizeof(line),
                "service window: %zu requests at %.1f req/s, lag p99 %.3f ms (oversleep p99 "
                "%.3f ms), %.1f MB and %llu dirs under the work root",
                all.size(), kRate, lag_p99, oversleep_p99,
                static_cast<double>(w.root_bytes) / (1 << 20),
                static_cast<unsigned long long>(dirs_after));
  result->notes.push_back(line);
  if (oversleep_p99 > kMaxOversleepP99Ms) {
    result->Fail("invalid run: the load generator fell behind (oversleep p99 " +
                     std::to_string(oversleep_p99) + " ms > " +
                     std::to_string(kMaxOversleepP99Ms) + " ms)",
                 0);
  }

  std::vector<double> other_ms;
  for (const auto& outcome : w.traced) {
    other_ms.push_back(outcome.latency_ms - outcome.lag_ms - outcome.queue_ms -
                       outcome.check_ms);
  }
  uint64_t hits = after.warm_hits - before.warm_hits;
  uint64_t acquisitions =
      hits + (after.cold_misses - before.cold_misses) + (after.bypasses - before.bypasses);
  std::map<std::string, double>& l = *ledger;
  l["service.queue_ms_p50"] = Median(Column(w.traced, &Outcome::queue_ms));
  l["service.check_ms_p50"] = Median(Column(w.traced, &Outcome::check_ms));
  l["service.other_ms_p50"] = Median(other_ms);
  l["service.warm_hit_ratio"] =
      acquisitions == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(acquisitions);
  l["service.rejected"] =
      static_cast<double>(after.admission.rejected - before.admission.rejected);
  l["service.dirs_per_req"] =
      static_cast<double>(dirs_after - dirs_before) / static_cast<double>(all.size());
  l["loadgen.lag_p99_ms"] = lag_p99;
  return w;
}

}  // namespace

RunResult RunServiceWarm(const RunArgs& args) {
  RunResult result;
  ServiceOptions shipped = ServiceOptions::FromEnv();
  result.notes.push_back("options: " + EffectiveOptionsJson(args, shipped.session, &shipped));
  char line[240];
  std::snprintf(line, sizeof(line),
                "mix: %s x {alpha,beta}; open loop, Poisson %.1f req/s, %zu sender connections",
                kServiceSuite, kRate, kSenders);
  result.notes.push_back(line);

  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    if (setup.service != nullptr) {
      setup.service->Shutdown();  // drops its few warm sessions' dirs
      setup.service.reset();
    }
    int64_t begin = NowNs();
    setup = MakeSetup(args, args.work_dir + "/svc" + std::to_string(r), &result);
    setup_s.push_back(SecondsBetween(begin, NowNs()));
  }

  std::map<std::string, double> ledger;
  Tracer tracer;
  if (!args.trace) {
    Windows w =
        MeasureWarmService(args, setup, args.seconds, 0, nullptr, &ledger, &result);
    std::vector<double> latency = Column(w.untraced, &Outcome::latency_ms);
    // verdict_s: a verdict on every (tenant, subject) of the mix.
    size_t mix_size = std::size(kTenants) * setup.subjects.size();
    double verdict_s = 0;
    for (size_t mix = 0; mix < mix_size; ++mix) {
      std::vector<double> of_mix;
      for (size_t i = 0; i < w.untraced.size(); ++i) {
        if (w.arrivals[i].mix == mix) {
          of_mix.push_back(w.untraced[i].latency_ms * 1e-3);
        }
      }
      verdict_s += Median(of_mix);
    }
    std::snprintf(line, sizeof(line), "latency: p50 and p99 over %zu requests", latency.size());
    result.notes.push_back(line);
    result.Put("setup_s", Median(setup_s), "s");
    result.Put("verdict_s", verdict_s, "s");
    result.Put("req_p50_ms", Percentile(latency, 50), "ms");
    result.Put("req_p99_ms", Percentile(latency, 99), "ms");
    result.Put("peak_rss_mb", PeakRssMb(), "MB");
    result.Put("disk_kb_per_check",
               static_cast<double>(w.root_bytes) / 1024.0 / static_cast<double>(w.checks),
               "KB");
    result.Put("ok_frac",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "fraction");
  } else {
    // First half untraced, second half traced through the envelope; the
    // difference of their medians is the tracing overhead.
    Windows w = MeasureWarmService(args, setup, args.seconds / 2, args.seconds / 2, &tracer,
                                   &ledger, &result);
    std::map<std::string, double> layers =
        MedianLedger(WarmCheckProbe(setup, args.work_dir + "/probe", &result));
    ledger.insert(layers.begin(), layers.end());
    ledger["trace.overhead_frac"] = Median(Column(w.traced, &Outcome::latency_ms)) /
                                        Median(Column(w.untraced, &Outcome::latency_ms)) -
                                    1.0;
    PutLedger(ledger, &result);
    for (const auto& [name, self] : tracer.SelfSeconds()) {
      std::snprintf(line, sizeof(line), "self time: %-20s %10.4f s over %zu traced requests",
                    name.c_str(), self, w.traced.size());
      result.notes.push_back(line);
    }
    std::string trace_path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (tracer.WriteChromeTrace(trace_path)) {
      result.notes.push_back("spans: " + trace_path);
    }
  }
  setup.service->Shutdown();
  setup.service.reset();
  return result;
}

std::map<std::string, double> WarmServiceLayers(const RunArgs& args, double seconds,
                                                RunResult* result) {
  Setup setup = MakeSetup(args, args.work_dir + "/svc-probe", result);
  std::map<std::string, double> ledger;
  MeasureWarmService(args, setup, seconds / 2, seconds / 2, nullptr, &ledger, result);
  setup.service->Shutdown();
  return ledger;
}

}  // namespace yardstick
