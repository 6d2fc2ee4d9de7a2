// Reproduces Table 3: graph sizes and running times per subject.
//
// Columns mirror the paper: #V, #EB (edges before computation), #EA (edges
// after), PT (preprocessing), CT (computation), TT (total). Absolute values
// differ (synthetic subjects, scaled sizes, different hardware); the target
// shape is the ordering — hadoop fastest, hbase slowest by an order of
// magnitude or more — and #EA >> #EB growth from transitive closure.
//
// Paper: ZooKeeper 2.4M/12.9M/24.1M 47s+1h06m,  Hadoop 8.3M/17.4M/30.2M 53m,
//        HDFS 7.6M/18.0M/29.4M 1h54m,  HBase 26.1M/70.9M/125.9M 33h51m.
#include <algorithm>
#include <cinttypes>

#include "bench/bench_util.h"
#include "src/checker/report_json.h"
#include "src/obs/event_log.h"
#include "src/obs/profiler.h"
#include "src/obs/sampler.h"
#include "src/support/byte_io.h"
#include "src/support/env.h"

namespace grapple {
namespace {

// Sums one counter across every phase of a run (alias + all typestate).
uint64_t SumCounter(const GrappleResult& r, const std::string& name) {
  uint64_t total = 0;
  for (const auto& phase : r.report.phases) {
    total += phase.metrics.CounterOr(name);
  }
  return total;
}

// Non-negative env override; an unset/empty/negative value yields the
// default (explicit 0 is honored — e.g. GRAPPLE_SCHED_SOLVE_US=0).
size_t EnvSize(const char* name, size_t default_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return default_value;
  }
  long long value = std::atoll(env);
  return value >= 0 ? static_cast<size_t>(value) : default_value;
}

// Timing-free fingerprint of the run: every bug report and witness, in
// checker order. Sequential and parallel scheduling must agree on this.
std::string ReportFingerprint(const GrappleResult& r) {
  std::string out;
  for (const auto& checker : r.checkers) {
    out += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
  }
  return out;
}

double MaxGaugeAllPhases(const GrappleResult& r, const std::string& name) {
  double max_value = 0;
  for (const auto& phase : r.report.phases) {
    max_value = std::max(max_value, phase.metrics.GaugeOr(name));
  }
  return max_value;
}

// Subject for the scheduler comparison. The paper presets are all
// exception-dominated (e.g. zookeeper: 59 of 65 real bugs in the except
// checker), so one checker owns ~2/3 of the typestate solves and Amdahl
// caps any 4-way schedule at ~1.5x no matter the scheduler. That skew is a
// workload property, not a scheduler property; this subject keeps the
// zookeeper shape (filler, branching, modules at the given scale) but gives
// the four checkers equal pattern load, so the measurement isolates
// scheduling overlap from per-checker imbalance.
WorkloadConfig SchedulerSubject(double scale) {
  WorkloadConfig cfg = ZooKeeperPreset(scale);
  cfg.name = "sched-balanced";
  cfg.io = cfg.lock = cfg.except = cfg.socket = {16, 1, 6};
  return cfg;
}

// Sequential-vs-parallel scheduler comparison on one subject. Phase 1
// (alias analysis) runs once per session and is identical in both modes, so
// the scheduler's own effect is measured on a warm session: Check({}) first
// caches the alias phase, then the timed Check runs all four checkers
// sequentially vs concurrently. The fresh-pipeline ratio (alias included) is
// recorded alongside for the Amdahl picture. Solver latency is simulated as
// *blocking* (an out-of-process solver endpoint): while one checker waits on
// a solve, the core runs another checker's work, so the speedup measures
// real scheduler overlap rather than requiring idle cores — meaningful even
// on single-core CI runners.
void RunSchedulerSpeedup(obs::BenchReport* bench, const WorkloadConfig& preset) {
  size_t parallelism = EnvSize("GRAPPLE_CHECKER_PARALLELISM", 4);
  GrappleOptions options;
  options.engine.simulated_solve_latency_us =
      static_cast<uint32_t>(EnvSize("GRAPPLE_SCHED_SOLVE_US", 500));
  options.engine.simulated_solve_blocks = true;
  Workload workload = GenerateWorkload(preset);

  struct ModeRun {
    GrappleResult result;
    double check_seconds = 0;  // warm-session multi-checker Check only
    double total_seconds = 0;  // construction + alias + Check
  };
  auto run_mode = [&](size_t checker_parallelism) {
    GrappleOptions mode_options = options;
    mode_options.scheduling.checker_parallelism = checker_parallelism;
    Program program = workload.program;
    ModeRun run;
    WallTimer total_timer;
    Grapple grapple(std::move(program), mode_options);
    grapple.Check({});  // warm the session: phase 1 only, cached after
    WallTimer check_timer;
    run.result = grapple.Check(AllBuiltinCheckers());
    run.check_seconds = check_timer.ElapsedSeconds();
    run.total_seconds = total_timer.ElapsedSeconds();
    return run;
  };

  ModeRun sequential = run_mode(1);
  ModeRun parallel = run_mode(parallelism);
  bool identical = ReportFingerprint(sequential.result) == ReportFingerprint(parallel.result);
  double speedup =
      parallel.check_seconds > 0 ? sequential.check_seconds / parallel.check_seconds : 0;
  double pipeline_speedup =
      parallel.total_seconds > 0 ? sequential.total_seconds / parallel.total_seconds : 0;

  PrintHeaderLine("Scheduler: sequential vs concurrent checkers");
  std::printf("%-11s %12s %9s %9s %8s %9s %10s\n", "Subject", "parallelism", "seq", "par",
              "speedup", "pipeline", "identical");
  std::printf("%-11s %12zu %9s %9s %7.2fx %8.2fx %10s\n", preset.name.c_str(), parallelism,
              FormatDuration(sequential.check_seconds).c_str(),
              FormatDuration(parallel.check_seconds).c_str(), speedup, pipeline_speedup,
              identical ? "yes" : "NO");
  std::printf("seq/par time the 4-checker Check on a warm session (phase 1 cached; it is\n");
  std::printf("serial and identical either way — 'pipeline' includes it, fresh run).\n");
  std::printf("(solver modeled as blocking round trips of %u us; checkers overlap them)\n",
              options.engine.simulated_solve_latency_us);

  obs::RunReport sched;
  sched.subject = "scheduler_speedup";
  sched.total_seconds = sequential.total_seconds + parallel.total_seconds;
  obs::PhaseReport phase;
  phase.name = "scheduler";
  phase.seconds = parallel.check_seconds;
  phase.metrics.gauges["sched_checker_parallelism"] = static_cast<double>(parallelism);
  phase.metrics.gauges["sched_sequential_seconds"] = sequential.check_seconds;
  phase.metrics.gauges["sched_parallel_seconds"] = parallel.check_seconds;
  phase.metrics.gauges["sched_speedup"] = speedup;
  phase.metrics.gauges["sched_pipeline_sequential_seconds"] = sequential.total_seconds;
  phase.metrics.gauges["sched_pipeline_parallel_seconds"] = parallel.total_seconds;
  phase.metrics.gauges["sched_pipeline_speedup"] = pipeline_speedup;
  phase.metrics.gauges["sched_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["sched_budget_bytes"] =
      static_cast<double>(options.engine.memory_budget_bytes);
  phase.metrics.gauges["sched_peak_engine_resident_bytes"] =
      MaxGaugeAllPhases(parallel.result, "engine_peak_resident_bytes");
  sched.phases.push_back(std::move(phase));
  bench->Add(std::move(sched));
}

// Pipelined partition I/O (write-behind + prefetch + compact block format)
// on one subject. The engine memory budget is capped well below the
// subject's edge data so the run genuinely spills: partitions split, deltas
// append, and the fixpoint sweep re-loads partitions pair after pair —
// exactly the access pattern the write-back/prefetch cache targets. Gated
// gauges, all work counts:
//   io_cache_served_frac — loads served by the write-back or prefetch
//     cache over all partition loads;
//   io_bytes_written_reduction — 1 - io_bytes_written / io_raw_bytes, the
//     block format's on-disk saving against the RawFormatBytes size model
//     of the same writes;
//   io_reports_identical — the spilling run's reports are byte-identical
//     to an in-memory (64 MB) run of the same subject.
void RunIoPipeline(obs::BenchReport* bench, const WorkloadConfig& preset) {
  Workload workload = GenerateWorkload(preset);
  auto run = [&](uint64_t budget_bytes, double* seconds) {
    GrappleOptions options;
    options.engine.memory_budget_bytes = budget_bytes;
    Program program = workload.program;
    WallTimer timer;
    Grapple grapple(std::move(program), options);
    GrappleResult result = grapple.Check(AllBuiltinCheckers());
    *seconds = timer.ElapsedSeconds();
    return result;
  };
  const uint64_t budget = EnvSize("GRAPPLE_IO_BUDGET_BYTES", size_t{1} << 14);
  double total_seconds = 0;
  double in_memory_seconds = 0;
  GrappleResult spill = run(budget, &total_seconds);
  GrappleResult in_memory = run(uint64_t{64} << 20, &in_memory_seconds);

  bool identical = ReportFingerprint(spill) == ReportFingerprint(in_memory);
  double io_seconds = SumCounter(spill, "phase_io_ns") / 1e9;
  double bytes_written = static_cast<double>(SumCounter(spill, "io_bytes_written"));
  double raw_bytes = static_cast<double>(SumCounter(spill, "io_raw_bytes"));
  double bytes_read = static_cast<double>(SumCounter(spill, "io_bytes_read"));
  double write_reduction = raw_bytes > 0 ? 1.0 - bytes_written / raw_bytes : 0;
  double prefetch_hits = static_cast<double>(SumCounter(spill, "io_prefetch_hits_total"));
  double prefetch_issued = static_cast<double>(SumCounter(spill, "io_prefetch_issued_total"));
  double prefetch_wasted = static_cast<double>(SumCounter(spill, "io_prefetch_wasted_total"));
  double write_cache_hits = static_cast<double>(SumCounter(spill, "io_write_cache_hits_total"));
  double loads = static_cast<double>(SumCounter(spill, "io_partition_loads_total"));
  double cache_served = loads > 0 ? (prefetch_hits + write_cache_hits) / loads : 0;

  PrintHeaderLine("Partition I/O: pipelined store on a spilling budget");
  std::printf("%-11s %9s %10s %10s %9s %9s %10s\n", "Subject", "io", "wrMB", "rawMB", "wr-red",
              "cached", "identical");
  std::printf("%-11s %9s %10.2f %10.2f %8.1f%% %8.1f%% %10s\n", preset.name.c_str(),
              FormatDuration(io_seconds).c_str(), bytes_written / (1024.0 * 1024.0),
              raw_bytes / (1024.0 * 1024.0), 100.0 * write_reduction, 100.0 * cache_served,
              identical ? "yes" : "NO");
  std::printf("io is foreground blocking time in the \"io\" phase bucket at a %zu KB budget;\n",
              static_cast<size_t>(budget >> 10));
  std::printf("wr-red is the block format's on-disk saving against the raw size model\n");
  std::printf("(rawMB); cached is the share of the %.0f loads served by the write-back\n",
              loads);
  std::printf("cache (%.0f hits) or the prefetch cache (%.0f hits / %.0f issued / %.0f\n",
              write_cache_hits, prefetch_hits, prefetch_issued, prefetch_wasted);
  std::printf("wasted); identical compares the reports with an in-memory 64 MB run.\n");

  obs::RunReport pipeline;
  pipeline.subject = "io_pipeline";
  pipeline.total_seconds = total_seconds + in_memory_seconds;
  obs::PhaseReport phase;
  phase.name = "io_pipeline";
  phase.seconds = io_seconds;
  phase.metrics.gauges["io_seconds"] = io_seconds;
  phase.metrics.gauges["io_bytes_written"] = bytes_written;
  phase.metrics.gauges["io_raw_bytes"] = raw_bytes;
  phase.metrics.gauges["io_bytes_written_reduction"] = write_reduction;
  phase.metrics.gauges["io_bytes_read"] = bytes_read;
  phase.metrics.gauges["io_prefetch_hits"] = prefetch_hits;
  phase.metrics.gauges["io_prefetch_issued"] = prefetch_issued;
  phase.metrics.gauges["io_prefetch_wasted"] = prefetch_wasted;
  phase.metrics.gauges["io_write_cache_hits"] = write_cache_hits;
  phase.metrics.gauges["io_loads"] = loads;
  phase.metrics.gauges["io_cache_served_frac"] = cache_served;
  phase.metrics.gauges["io_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["io_budget_bytes"] = static_cast<double>(budget);
  phase.metrics.gauges["io_total_seconds"] = total_seconds;
  phase.metrics.gauges["io_total_seconds_in_memory"] = in_memory_seconds;
  pipeline.phases.push_back(std::move(phase));
  bench->Add(std::move(pipeline));
}

// The unified work-stealing task runtime (DESIGN.md §14) under its two
// steal policies: locality-aware (the default) and always. Same spilling
// subject and budget as the I/O section so the store's strands carry real
// traffic, with num_threads=2 so join-shard tasks exist. Reports must be
// byte-identical across policies; the gated gauges, from the locality-aware
// run, are the overlap ratio (store I/O executed on background lanes
// rather than blocking the foreground) and the steal efficiency (affine
// tasks that ran on their home worker although idle workers steal).
void RunTaskRuntime(obs::BenchReport* bench, const WorkloadConfig& preset) {
  GrappleOptions options;
  options.engine.memory_budget_bytes = EnvSize("GRAPPLE_IO_BUDGET_BYTES", size_t{1} << 14);
  options.scheduling.num_threads = 2;
  Workload workload = GenerateWorkload(preset);

  struct ModeRun {
    GrappleResult result;
    TaskRuntimeStats stats;
    double total_seconds = 0;
    double fg_io_seconds = 0;  // foreground blocking time in the io bucket
  };
  auto run_mode = [&](StealPolicy policy) {
    GrappleOptions mode_options = options;
    mode_options.scheduling.steal_policy = policy;
    Program program = workload.program;
    ModeRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), mode_options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    run.stats = grapple.RuntimeStats();
    run.fg_io_seconds = SumCounter(run.result, "phase_io_ns") / 1e9;
    return run;
  };

  ModeRun always = run_mode(StealPolicy::kAlways);
  ModeRun locality = run_mode(StealPolicy::kLocalityAware);

  bool identical = ReportFingerprint(always.result) == ReportFingerprint(locality.result);
  const TaskRuntimeStats& s = locality.stats;
  double background_io_seconds =
      (s.busy_ns[static_cast<size_t>(TaskLane::kPrefetch)] +
       s.busy_ns[static_cast<size_t>(TaskLane::kWriteBehind)]) /
      1e9;
  double io_overlap = background_io_seconds + locality.fg_io_seconds > 0
                          ? background_io_seconds /
                                (background_io_seconds + locality.fg_io_seconds)
                          : 0;
  double steal_efficiency =
      s.affine_tasks > 0 ? static_cast<double>(s.affine_hits) / s.affine_tasks : 1.0;

  PrintHeaderLine("Task runtime: locality-aware vs always stealing");
  std::printf("%-11s %9s %9s %9s %8s %8s %10s\n", "Subject", "tt(alw)", "tt(loc)", "overlap",
              "steal-ef", "steals", "identical");
  std::printf("%-11s %9s %9s %8.1f%% %7.1f%% %8" PRIu64 " %10s\n", preset.name.c_str(),
              FormatDuration(always.total_seconds).c_str(),
              FormatDuration(locality.total_seconds).c_str(), 100.0 * io_overlap,
              100.0 * steal_efficiency, s.steals, identical ? "yes" : "NO");
  std::printf("overlap is store I/O run on the prefetch/write-behind lanes as a share of\n");
  std::printf("all I/O time (background lanes + foreground blocking); steal-ef is the\n");
  std::printf("share of pair-affine tasks that still ran on their home worker under the\n");
  std::printf("locality-aware policy (%" PRIu64 " strand tasks, queue peak %" PRIu64 ").\n",
              s.strand_tasks, s.queue_peak);

  obs::RunReport report;
  report.subject = "task_runtime";
  report.total_seconds = always.total_seconds + locality.total_seconds;
  obs::PhaseReport phase;
  phase.name = "task_runtime";
  phase.seconds = locality.total_seconds;
  phase.metrics.gauges["tr_total_seconds_always"] = always.total_seconds;
  phase.metrics.gauges["tr_total_seconds_locality"] = locality.total_seconds;
  phase.metrics.gauges["tr_io_overlap"] = io_overlap;
  phase.metrics.gauges["tr_steal_efficiency"] = steal_efficiency;
  phase.metrics.gauges["tr_steals"] = static_cast<double>(s.steals);
  phase.metrics.gauges["tr_affine_tasks"] = static_cast<double>(s.affine_tasks);
  phase.metrics.gauges["tr_strand_tasks"] = static_cast<double>(s.strand_tasks);
  phase.metrics.gauges["tr_inline_tasks"] = static_cast<double>(s.inline_tasks);
  phase.metrics.gauges["tr_queue_peak"] = static_cast<double>(s.queue_peak);
  phase.metrics.gauges["tr_foreground_io_seconds"] = locality.fg_io_seconds;
  phase.metrics.gauges["tr_background_io_seconds"] = background_io_seconds;
  phase.metrics.gauges["tr_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["tr_budget_bytes"] =
      static_cast<double>(options.engine.memory_budget_bytes);
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// A/B of crash-safe checkpointing (DESIGN.md §11) against a plain run on
// one spilling subject. The checkpointing run quiesces I/O and publishes a
// manifest every kDefaultCheckpointInterval partition pairs plus once at
// the fixpoint; the gate is the fraction of its wall time spent inside the
// "ckpt" phase (quiesce + encode + fsync + rename + GC), which must stay
// under 5% — the wall-clock A/B delta is recorded alongside but jitters too
// much at smoke scale to gate. Reports must be byte-identical across modes.
// GRAPPLE_CHECKPOINT / GRAPPLE_CHECKPOINT_INTERVAL override the option at
// engine construction, so both are unset around the runs and restored.
void RunCheckpointOverhead(obs::BenchReport* bench, const WorkloadConfig& preset) {
  ScopedEnvUnset env(
      {"GRAPPLE_CHECKPOINT", "GRAPPLE_CHECKPOINT_INTERVAL", "GRAPPLE_CHECKPOINT_SPACING"});

  GrappleOptions options;
  options.engine.memory_budget_bytes = EnvSize("GRAPPLE_IO_BUDGET_BYTES", size_t{1} << 14);
  Workload workload = GenerateWorkload(preset);

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
    double ckpt_seconds = 0;
    double ckpt_written = 0;
    double ckpt_bytes = 0;
  };
  auto run_mode = [&](uint32_t interval) {
    TempDir work_dir("bench-ckpt");
    GrappleOptions mode_options = options;
    mode_options.work_dir = work_dir.path();
    mode_options.robustness.checkpoint_interval = interval;
    Program program = workload.program;
    ModeRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), mode_options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    run.ckpt_seconds = SumCounter(run.result, "phase_ckpt_ns") / 1e9;
    run.ckpt_written = static_cast<double>(SumCounter(run.result, "ckpt_written_total"));
    run.ckpt_bytes = static_cast<double>(SumCounter(run.result, "ckpt_bytes"));
    return run;
  };

  ModeRun off = run_mode(0);
  ModeRun on = run_mode(kDefaultCheckpointInterval);

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double phase_fraction = on.total_seconds > 0 ? on.ckpt_seconds / on.total_seconds : 0;
  double wall_overhead =
      off.total_seconds > 0 ? on.total_seconds / off.total_seconds - 1.0 : 0;

  PrintHeaderLine("Checkpointing: off vs every-8-pairs manifests");
  std::printf("%-11s %9s %9s %8s %9s %8s %9s %10s\n", "Subject", "tt(off)", "tt(on)",
              "ckpt", "manifests", "MB", "fraction", "identical");
  std::printf("%-11s %9s %9s %8s %9.0f %8.2f %8.2f%% %10s\n", preset.name.c_str(),
              FormatDuration(off.total_seconds).c_str(),
              FormatDuration(on.total_seconds).c_str(),
              FormatDuration(on.ckpt_seconds).c_str(), on.ckpt_written,
              on.ckpt_bytes / (1024.0 * 1024.0), 100.0 * phase_fraction,
              identical ? "yes" : "NO");
  std::printf("ckpt is time inside the checkpoint phase (quiesce, encode, fsync, rename,\n");
  std::printf("GC); fraction = ckpt / tt(on) is the gated overhead (< 5%%). The wall A/B\n");
  std::printf("delta was %+.1f%% this run (informational; jitters at smoke scale).\n",
              100.0 * wall_overhead);

  obs::RunReport report;
  report.subject = "checkpointing";
  report.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "checkpointing";
  phase.seconds = on.ckpt_seconds;
  phase.metrics.gauges["ckpt_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["ckpt_total_seconds_on"] = on.total_seconds;
  phase.metrics.gauges["ckpt_seconds"] = on.ckpt_seconds;
  phase.metrics.gauges["ckpt_phase_fraction"] = phase_fraction;
  phase.metrics.gauges["ckpt_per_manifest_seconds"] =
      on.ckpt_written > 0 ? on.ckpt_seconds / on.ckpt_written : 0;
  phase.metrics.gauges["ckpt_wall_overhead"] = wall_overhead;
  phase.metrics.gauges["ckpt_manifests_written"] = on.ckpt_written;
  phase.metrics.gauges["ckpt_manifest_bytes"] = on.ckpt_bytes;
  phase.metrics.gauges["ckpt_interval"] = static_cast<double>(kDefaultCheckpointInterval);
  phase.metrics.gauges["ckpt_reports_identical"] = identical ? 1 : 0;
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// A/B of the always-on observability plane (flight-recorder event sink plus
// the background metrics sampler) against a run with the recorder paused.
// The acceptance criterion is that recorder + sampler together cost at most
// 2% wall time at full scale — gated via the obs_overhead gauge by
// check_bench.py from scale 1.0 up (smoke runs are too short to separate
// the overhead from scheduler jitter, so the smoke-scale gate is only that
// reports stay byte-identical with the recorder on). obs_overhead is
// clamped at zero: a "negative overhead" is jitter, not a speedup.
void RunObsOverhead(obs::BenchReport* bench, const WorkloadConfig& preset) {
  Workload workload = GenerateWorkload(preset);
  GrappleOptions options;

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
  };
  auto run_mode = [&](bool obs_on) {
    Program program = workload.program;
    ModeRun run;
    if (obs_on) {
      obs::EventLogSetEnabled(true);
      obs::Sampler::Get().Start(50);
    } else {
      obs::Sampler::Get().Stop();
      obs::EventLogSetEnabled(false);
    }
    WallTimer timer;
    Grapple grapple(std::move(program), options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    if (obs_on) {
      obs::Sampler::Get().Stop();
    } else {
      obs::EventLogSetEnabled(true);  // the recorder is on by default
    }
    return run;
  };

  ModeRun off = run_mode(false);
  ModeRun on = run_mode(true);
  double samples = static_cast<double>(obs::Sampler::Get().sample_count());
  double events_live = static_cast<double>(obs::EventLogTail(0).size());

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double wall_delta = off.total_seconds > 0 ? on.total_seconds / off.total_seconds - 1.0 : 0;
  double overhead = std::max(0.0, wall_delta);

  PrintHeaderLine("Observability: recorder+sampler on vs paused");
  std::printf("%-11s %9s %9s %9s %8s %8s %10s\n", "Subject", "tt(off)", "tt(on)", "overhead",
              "events", "samples", "identical");
  std::printf("%-11s %9s %9s %8.2f%% %8.0f %8.0f %10s\n", preset.name.c_str(),
              FormatDuration(off.total_seconds).c_str(),
              FormatDuration(on.total_seconds).c_str(), 100.0 * overhead, events_live,
              samples, identical ? "yes" : "NO");
  std::printf("overhead is the wall-time cost of the flight-recorder sink plus the\n");
  std::printf("%u ms metrics sampler (gated < 2%% from scale 1.0; raw A/B delta %+.1f%%).\n",
              50u, 100.0 * wall_delta);

  obs::RunReport report;
  report.subject = "obs_overhead";
  report.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "observability";
  phase.seconds = on.total_seconds;
  phase.metrics.gauges["obs_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["obs_total_seconds_on"] = on.total_seconds;
  phase.metrics.gauges["obs_overhead"] = overhead;
  phase.metrics.gauges["obs_wall_delta"] = wall_delta;
  phase.metrics.gauges["obs_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["obs_events_live"] = events_live;
  phase.metrics.gauges["obs_samples"] = samples;
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// A/B of the sampling profiler (DESIGN.md §13) against an unprofiled run.
// The acceptance criteria are that SIGPROF sampling at the default 97 Hz
// costs at most 2% wall time at full scale — gated via the prof_overhead
// gauge by check_bench.py from scale 1.0 up — and that bug reports stay
// byte-identical with profiling on (gated at every scale). prof_overhead is
// clamped at zero like obs_overhead: negative deltas are jitter.
void RunProfOverhead(obs::BenchReport* bench, const WorkloadConfig& preset) {
  Workload workload = GenerateWorkload(preset);

  // The env knobs would force both arms the same way; measure the option
  // paths and restore the caller's environment afterwards.
  ScopedEnvUnset env({"GRAPPLE_PROFILE", "GRAPPLE_PROFILE_HZ"});

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
  };
  auto run_mode = [&](bool profile_on) {
    GrappleOptions options;
    options.observability.profile = profile_on;
    Program program = workload.program;
    ModeRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    return run;
  };

  ModeRun off = run_mode(false);
  ModeRun on = run_mode(true);
  obs::ProfileData prof = obs::ProfilerSnapshot();
  // The profiled session dumps into its own (temporary, already deleted)
  // work dir; the ledger outlives the session, so export a copy next to
  // the bench reports for the nightly flamegraph artifact.
  const char* report_dir = std::getenv("GRAPPLE_REPORT_DIR");
  if (report_dir != nullptr && prof.total_samples > 0) {
    obs::ProfilerWriteFile(std::string(report_dir) + "/profile.bin");
  }

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double wall_delta = off.total_seconds > 0 ? on.total_seconds / off.total_seconds - 1.0 : 0;
  double overhead = std::max(0.0, wall_delta);

  PrintHeaderLine("Profiler: sampling on vs off");
  std::printf("%-11s %9s %9s %9s %8s %8s %10s\n", "Subject", "tt(off)", "tt(on)", "overhead",
              "samples", "dropped", "identical");
  std::printf("%-11s %9s %9s %8.2f%% %8" PRIu64 " %8" PRIu64 " %10s\n", preset.name.c_str(),
              FormatDuration(off.total_seconds).c_str(),
              FormatDuration(on.total_seconds).c_str(), 100.0 * overhead,
              prof.total_samples, prof.dropped_samples, identical ? "yes" : "NO");
  std::printf("overhead is the wall-time cost of SIGPROF sampling + ring harvesting at\n");
  std::printf("%u Hz (gated < 2%% from scale 1.0; raw A/B delta %+.1f%%).\n",
              kDefaultProfileHz, 100.0 * wall_delta);

  obs::RunReport report;
  report.subject = "prof_overhead";
  report.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "profiler";
  phase.seconds = on.total_seconds;
  phase.metrics.gauges["prof_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["prof_total_seconds_on"] = on.total_seconds;
  phase.metrics.gauges["prof_overhead"] = overhead;
  phase.metrics.gauges["prof_wall_delta"] = wall_delta;
  phase.metrics.gauges["prof_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["prof_samples"] = static_cast<double>(prof.total_samples);
  phase.metrics.gauges["prof_dropped_samples"] = static_cast<double>(prof.dropped_samples);
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// One alias-phase-only run of a pinned subject (GRAPPLE_SCALE does not move
// it), shared by the repartition and join-parallelism gates below.
struct AliasRun {
  PhaseStats alias;
  size_t alias_pairs = 0;
  double seconds = 0;  // whole Check({}): frontend plus alias phase
};

AliasRun RunAliasPhase(const Workload& workload, const GrappleOptions& options) {
  Program program = workload.program;
  AliasRun run;
  WallTimer timer;
  Grapple grapple(std::move(program), options);
  GrappleResult result = grapple.Check({});  // phase 1 (alias) only
  run.seconds = timer.ElapsedSeconds();
  run.alias = result.alias;
  run.alias_pairs = result.alias_pairs;
  return run;
}

bool SameAliasClosure(const AliasRun& a, const AliasRun& b) {
  return a.alias.edges_after == b.alias.edges_after && a.alias_pairs == b.alias_pairs;
}

// Per-commit smoke gate for out-of-core join work. hbase@0.3 runs the alias
// phase once at the default 64 MB budget, where the closure stays in one
// partition, and once at 4 MB, where it repartitions. Splitting must not
// make the closure redo joins it already did (DESIGN.md, "Delta frontier
// across repartitioning"), so the gated gauges are the joins ratio (4 MB
// over 64 MB), the split count (the subject must actually take the split
// path) and whether both budgets reach the same alias closure. Join counts
// are deterministic, so unlike the wall-clock A/Bs above this gate is exact
// on any machine.
void RunRepartition(obs::BenchReport* bench, const WorkloadConfig& preset,
                    const Workload& workload) {
  const uint64_t budgets[2] = {uint64_t{64} << 20, uint64_t{4} << 20};
  AliasRun runs[2];
  for (int i = 0; i < 2; ++i) {
    GrappleOptions options;
    options.engine.memory_budget_bytes = budgets[i];
    runs[i] = RunAliasPhase(workload, options);
  }
  const AliasRun& in_memory = runs[0];
  const AliasRun& spilled = runs[1];
  double joins_ratio = in_memory.alias.engine.joins_attempted > 0
                           ? static_cast<double>(spilled.alias.engine.joins_attempted) /
                                 static_cast<double>(in_memory.alias.engine.joins_attempted)
                           : 0;
  bool identical = SameAliasClosure(in_memory, spilled);

  PrintHeaderLine("Repartitioning: alias closure at 64 MB vs 4 MB");
  std::printf("%-11s %7s %12s %7s %6s %11s %9s %9s\n", "Subject", "budget", "joins", "splits",
              "#part", "#EA", "flowsTo", "time");
  for (int i = 0; i < 2; ++i) {
    std::printf("%-11s %5" PRIu64 "MB %12" PRIu64 " %7" PRIu64 " %6zu %11" PRIu64 " %9zu %9s\n",
                preset.name.c_str(), budgets[i] >> 20, runs[i].alias.engine.joins_attempted,
                runs[i].alias.engine.partition_splits, runs[i].alias.engine.peak_partitions,
                runs[i].alias.edges_after, runs[i].alias_pairs,
                FormatDuration(runs[i].seconds).c_str());
  }
  std::printf("joins ratio %.2fx (gated <= 1.10); closure %s across budgets.\n", joins_ratio,
              identical ? "identical" : "DIFFERS");

  obs::RunReport report;
  report.subject = "repartition";
  report.total_seconds = in_memory.seconds + spilled.seconds;
  obs::PhaseReport phase;
  phase.name = "repartition";
  phase.seconds = spilled.seconds;
  phase.metrics.gauges["rp_joins_ratio"] = joins_ratio;
  phase.metrics.gauges["rp_splits"] = static_cast<double>(spilled.alias.engine.partition_splits);
  phase.metrics.gauges["rp_alias_edges_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["rp_joins_in_memory"] =
      static_cast<double>(in_memory.alias.engine.joins_attempted);
  phase.metrics.gauges["rp_joins_spilled"] =
      static_cast<double>(spilled.alias.engine.joins_attempted);
  phase.metrics.gauges["rp_peak_partitions"] =
      static_cast<double>(spilled.alias.engine.peak_partitions);
  phase.metrics.gauges["rp_seconds_in_memory"] = in_memory.seconds;
  phase.metrics.gauges["rp_seconds_spilled"] = spilled.seconds;
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// Per-commit gauge of how far the join shards run in parallel. The same
// pinned hbase@0.3 alias phase runs at num_threads 1 and 4 (GRAPPLE_THREADS
// is unset around both, since it would force both arms the same way).
// jp_speedup is the alias-phase wall time at 1 thread over 4 threads,
// floored at 1.0: more join shards must never make the closure slower. The
// oracle's memo is the only state the shards share and cannot change an
// answer (DESIGN.md, "Oracle concurrency"), so the closure and the joins
// attempted must be identical at both thread counts; those two gauges are
// exact on any machine. jp_scan_visits_per_join is the join scan's
// efficiency: adjacency entries visited per join attempted. It is a work
// count too (the same at any thread count), so it is gated exactly.
void RunJoinParallel(obs::BenchReport* bench, const WorkloadConfig& preset,
                     const Workload& workload) {
  ScopedEnvUnset env({"GRAPPLE_THREADS"});
  const size_t thread_counts[2] = {1, 4};
  AliasRun runs[2];
  for (int i = 0; i < 2; ++i) {
    GrappleOptions options;
    options.scheduling.num_threads = thread_counts[i];
    runs[i] = RunAliasPhase(workload, options);
  }
  const AliasRun& one = runs[0];
  const AliasRun& four = runs[1];
  double speedup = four.alias.seconds > 0 ? one.alias.seconds / four.alias.seconds : 0;
  bool identical = SameAliasClosure(one, four);
  bool joins_equal = one.alias.engine.joins_attempted == four.alias.engine.joins_attempted;
  double scan_visits = static_cast<double>(
      four.alias.engine.metrics.CounterOr("engine_join_scan_visits_total"));
  double visits_per_join =
      four.alias.engine.joins_attempted > 0
          ? scan_visits / static_cast<double>(four.alias.engine.joins_attempted)
          : 0;

  PrintHeaderLine("Join parallelism: alias closure at 1 vs 4 threads");
  std::printf("%-11s %7s %12s %11s %9s %9s\n", "Subject", "threads", "joins", "#EA", "flowsTo",
              "alias(s)");
  for (int i = 0; i < 2; ++i) {
    std::printf("%-11s %7zu %12" PRIu64 " %11" PRIu64 " %9zu %9.3f\n", preset.name.c_str(),
                thread_counts[i], runs[i].alias.engine.joins_attempted, runs[i].alias.edges_after,
                runs[i].alias_pairs, runs[i].alias.seconds);
  }
  std::printf("speedup %.2fx at 4 threads (floored at 1.0); closure %s, joins %s.\n", speedup,
              identical ? "identical" : "DIFFERS", joins_equal ? "equal" : "DIFFER");
  std::printf("join scan: %.0f adjacency entries visited, %.3f per join.\n", scan_visits,
              visits_per_join);

  obs::RunReport report;
  report.subject = "join_parallel";
  report.total_seconds = one.seconds + four.seconds;
  obs::PhaseReport phase;
  phase.name = "join_parallel";
  phase.seconds = four.alias.seconds;
  phase.metrics.gauges["jp_speedup"] = speedup;
  phase.metrics.gauges["jp_alias_edges_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["jp_joins_equal"] = joins_equal ? 1 : 0;
  phase.metrics.gauges["jp_alias_seconds_1"] = one.alias.seconds;
  phase.metrics.gauges["jp_alias_seconds_4"] = four.alias.seconds;
  phase.metrics.gauges["jp_joins"] = static_cast<double>(four.alias.engine.joins_attempted);
  phase.metrics.gauges["jp_scan_visits"] = scan_visits;
  phase.metrics.gauges["jp_scan_visits_per_join"] = visits_per_join;
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

int Main() {
  double scale = ScaleFromEnv(1.0);
  obs::BenchReport bench("table3_performance");
  PrintHeaderLine("Table 3: Grapple performance");
  std::printf("%-11s %9s %9s %10s %9s %11s %11s %6s %9s\n", "Subject", "#V(K)", "#EB(K)",
              "#EA(K)", "PT", "CT", "TT", "#part", "prov(MB)");
  for (const auto& preset : AllPresets(scale)) {
    WallTimer timer;
    SubjectRun run = RunSubject(preset);
    double total = timer.ElapsedSeconds();
    const GrappleResult& r = run.result;
    AddSubject(&bench, preset.name, r);
    size_t partitions = r.alias.engine.num_partitions;
    for (const auto& checker : r.checkers) {
      partitions += checker.typestate.engine.num_partitions;
    }
    std::printf("%-11s %9.1f %9.1f %10.1f %9s %11s %11s %6zu %9.2f\n", preset.name.c_str(),
                r.TotalVerticesAllPhases() / 1000.0, r.TotalEdgesBefore() / 1000.0,
                r.TotalEdgesAfter() / 1000.0, FormatDuration(r.PreprocessSeconds()).c_str(),
                FormatDuration(r.ComputeSeconds()).c_str(), FormatDuration(total).c_str(),
                partitions, SumCounter(r, "provenance_bytes") / (1024.0 * 1024.0));
  }
  std::printf("\npaper shape check: hadoop < zookeeper < hdfs << hbase in total time;\n");
  std::printf("edge count grows substantially during computation (#EA >> #EB).\n");
  std::printf("prov(MB) is the witness-provenance log written out-of-core per subject\n");
  std::printf("(GRAPPLE_WITNESS=%s; set GRAPPLE_WITNESS=off to measure without it).\n",
              obs::WitnessModeName(obs::WitnessModeFromEnv()));
  RunSchedulerSpeedup(&bench, SchedulerSubject(scale));
  RunIoPipeline(&bench, ZooKeeperPreset(scale));
  RunTaskRuntime(&bench, ZooKeeperPreset(scale));
  RunCheckpointOverhead(&bench, ZooKeeperPreset(scale));
  RunObsOverhead(&bench, ZooKeeperPreset(scale));
  RunProfOverhead(&bench, ZooKeeperPreset(scale));
  const WorkloadConfig pinned = HBasePreset(0.3);
  const Workload pinned_workload = GenerateWorkload(pinned);
  RunRepartition(&bench, pinned, pinned_workload);
  RunJoinParallel(&bench, pinned, pinned_workload);
  bench.Write();
  return 0;
}

}  // namespace
}  // namespace grapple

int main() { return grapple::Main(); }
