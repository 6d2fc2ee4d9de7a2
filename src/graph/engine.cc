#include "src/graph/engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "src/graph/checkpoint.h"
#include "src/graph/integration.h"
#include "src/graph/join_index.h"
#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/obs/scope.h"
#include "src/support/byte_io.h"
#include "src/support/env.h"
#include "src/support/event_hook.h"
#include "src/support/fault_injection.h"
#include "src/support/logging.h"

namespace grapple {

namespace {

const obs::ScopeName kCkptScope("ckpt");
const obs::ScopeName kFinalizeScope("finalize");
const obs::ScopeName kJoinRoundScope("join_round");
const obs::ScopeName kJoinScope("join");
const obs::ScopeName kJoinShardScope("join_shard");
const obs::ScopeName kRunScope("run");

// A join result awaiting integration. Its payload is interned when the
// merge memo answered it, and otherwise a miss of its shard (interned when
// integration folds the shard's misses).
struct Candidate {
  VertexId src = 0;
  VertexId dst = 0;
  Label label = kNoLabel;
  bool interned = false;
  uint32_t payload = 0;  // see ShardMerges::Answer
  // Provenance (only filled when recording): content hashes + identities of
  // the two parent edges the join consumed.
  uint64_t parent_a = 0;
  uint64_t parent_b = 0;
  obs::ProvEdge a_edge;
  obs::ProvEdge b_edge;
};

// One join shard's output for a round.
struct ShardCandidates {
  ShardCandidates(const MergeMemo* memo, const PayloadTable* payloads, ConstraintOracle* oracle)
      : merges(memo, payloads, oracle) {}

  std::vector<Candidate> candidates;
  ShardMerges merges;
};

obs::ProvEdge ProvEdgeOf(VertexId src, VertexId dst, Label label) {
  obs::ProvEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  return edge;
}

}  // namespace

// In-memory view of the two loaded partitions plus everything induced while
// they are resident, with the label-indexed adjacency the join scans.
class GraphEngine::LoadedPair {
 public:
  struct MemEdge {
    VertexId src;
    VertexId dst;
    Label label;
    uint32_t payload;  // id in the engine's PayloadTable
  };

  LoadedPair(const Grammar* grammar, const PayloadTable* payloads, VertexId lo1, VertexId hi1,
             VertexId lo2, VertexId hi2)
      : payloads_(payloads), index_(grammar, lo1, hi1, lo2, hi2) {}

  bool Owns(VertexId v) const { return index_.Owns(v); }
  const JoinIndex& index() const { return index_; }

  size_t NumEdges() const { return edges_.size(); }
  const MemEdge& EdgeAt(size_t i) const { return edges_[i]; }
  const uint8_t* PayloadOf(const MemEdge& e) const { return payloads_->data(e.payload); }
  uint32_t PayloadLength(const MemEdge& e) const { return payloads_->length(e.payload); }
  // Sum of the resident edges' payload lengths: what the memory guard and
  // split sizing count, however many edges share one interned payload.
  uint64_t payload_bytes() const { return payload_bytes_; }

  // Appends without any checks (caller already dedup'd globally).
  uint32_t Insert(VertexId src, VertexId dst, Label label, uint32_t payload) {
    uint32_t idx = static_cast<uint32_t>(edges_.size());
    edges_.push_back({src, dst, label, payload});
    payload_bytes_ += payloads_->length(payload);
    index_.Add(idx, src, dst, label);
    return idx;
  }

  EdgeRecord ToRecord(const MemEdge& e) const {
    EdgeRecord record;
    record.src = e.src;
    record.dst = e.dst;
    record.label = e.label;
    record.payload.assign(PayloadOf(e), PayloadOf(e) + PayloadLength(e));
    return record;
  }

 private:
  const PayloadTable* payloads_;
  std::vector<MemEdge> edges_;
  uint64_t payload_bytes_ = 0;
  JoinIndex index_;
};

GraphEngine::GraphEngine(const Grammar* grammar, ConstraintOracle* oracle, EngineOptions options)
    : grammar_(grammar),
      oracle_(oracle),
      options_(std::move(options)),
      // Canonical snake_case + unit-suffix names (DESIGN.md §8).
      c_phase_join_ns_(metrics_.Counter("phase_join_ns")),
      c_phase_ckpt_ns_(metrics_.Counter("phase_ckpt_ns")),
      c_base_edges_(metrics_.Counter("engine_base_edges_total")),
      c_final_edges_(metrics_.Counter("engine_final_edges_total")),
      c_pair_loads_(metrics_.Counter("engine_pair_loads_total")),
      c_join_rounds_(metrics_.Counter("engine_join_rounds_total")),
      c_joins_attempted_(metrics_.Counter("engine_joins_attempted_total")),
      c_join_scan_visits_(metrics_.Counter("engine_join_scan_visits_total")),
      c_merge_memo_hits_(metrics_.Counter("engine_merge_memo_hits_total")),
      c_edges_added_(metrics_.Counter("engine_edges_added_total")),
      c_unsat_pruned_(metrics_.Counter("engine_unsat_pruned_total")),
      c_widened_triples_(metrics_.Counter("engine_widened_triples_total")),
      c_partition_splits_(metrics_.Counter("engine_partition_splits_total")),
      c_budget_borrows_(metrics_.Counter("engine_budget_borrows_total")),
      c_budget_stops_(metrics_.Counter("engine_budget_stops_total")),
      c_preprocess_ns_(metrics_.Counter("engine_preprocess_ns")),
      c_compute_ns_(metrics_.Counter("engine_compute_ns")),
      h_join_round_joins_(metrics_.Histogram("engine_join_round_joins")),
      c_witnesses_decoded_(metrics_.Counter("witnesses_decoded_total")),
      h_witness_decode_ns_(metrics_.Histogram("witness_decode_ns")),
      c_ckpt_written_(metrics_.Counter("ckpt_written_total")),
      c_ckpt_bytes_(metrics_.Counter("ckpt_bytes")),
      c_runs_resumed_(metrics_.Counter("runs_resumed_total")),
      owned_runtime_(options_.runtime != nullptr
                         ? nullptr
                         : std::make_unique<TaskRuntime>(TaskRuntimeOptions{
                               // One worker per join shard, plus one that
                               // keeps the background I/O lanes moving.
                               ResolveThreadCount(options_.num_threads) + 1})),
      runtime_(options_.runtime != nullptr ? options_.runtime : owned_runtime_.get()),
      join_shards_(ResolveThreadCount(options_.num_threads)),
      store_(options_.work_dir, *runtime_, &metrics_,
             PartitionCacheBudget{options_.budget_lease, options_.memory_budget_bytes}),
      memo_(options_.enable_cache ? std::make_unique<MergeMemo>(options_.cache_capacity)
                                  : nullptr) {
  GRAPPLE_CHECK(options_.io_pipeline)
      << "EngineOptions::io_pipeline = false is retired: partition I/O is always pipelined";
  obs::EventLogInstall();
  // Propose this engine's work dir as the crash-dump target; the Grapple
  // facade (when present) has already claimed the run work dir.
  obs::EventLogSetCrashDumpPath(options_.work_dir + "/flightrec.bin", /*only_if_unset=*/true);
  metrics_.SetGauge("engine_budget_bytes", static_cast<double>(BudgetBytes()));
  live_budget_bytes_.store(BudgetBytes(), std::memory_order_relaxed);
  if (options_.record_provenance) {
    provenance_ = std::make_unique<obs::ProvenanceWriter>(store_.ProvenancePath(), &metrics_);
  }
  options_.checkpoint_interval = ResolveCheckpointInterval(options_.checkpoint_interval);
  options_.checkpoint_min_spacing_seconds =
      ResolveCheckpointSpacing(options_.checkpoint_min_spacing_seconds);
  if (options_.checkpoint_interval > 0) {
    store_.SetCheckpointMode(true);
  }
  introspect_metrics_ = obs::Introspection::RegisterMetricsSource(
      "engine", [this] { return metrics_.Snapshot(); });
  introspect_status_ = obs::Introspection::RegisterStatusSource("engine", [this] {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("work_dir").String(options_.work_dir);
    uint64_t pair = live_pair_.load(std::memory_order_relaxed);
    if (pair == kNoLivePair) {
      w.Key("pair_cursor").Null();
    } else {
      w.Key("pair_cursor").BeginArray();
      w.UInt(pair >> 32).UInt(pair & 0xffffffffu);
      w.EndArray();
    }
    w.Key("pairs_done").UInt(live_pairs_done_.load(std::memory_order_relaxed));
    w.Key("checkpoints_published").UInt(live_ckpts_published_.load(std::memory_order_relaxed));
    w.Key("budget_bytes").UInt(live_budget_bytes_.load(std::memory_order_relaxed));
    // Closure yield: joins attempted per edge the closure actually added. A
    // scheduler that re-joins work it already did shows up here first.
    obs::MetricsSnapshot counters = metrics_.Snapshot();
    uint64_t edges_added = counters.CounterOr("engine_edges_added_total");
    w.Key("joins_per_new_edge");
    if (edges_added == 0) {
      w.Null();
    } else {
      w.Double(static_cast<double>(counters.CounterOr("engine_joins_attempted_total")) /
               static_cast<double>(edges_added));
    }
    w.EndObject();
    return w.Take();
  });
}

uint64_t GraphEngine::BudgetBytes() const {
  return options_.budget_lease != nullptr ? options_.budget_lease->bytes()
                                          : options_.memory_budget_bytes;
}

void GraphEngine::ObserveWitnessDecode(uint64_t nanos) {
  metrics_.Add(c_witnesses_decoded_);
  metrics_.Observe(h_witness_decode_ns_, nanos);
}

void GraphEngine::AddBaseEdge(VertexId src, VertexId dst, Label label, const PathEncoding& enc) {
  GRAPPLE_CHECK(!finalized_) << "AddBaseEdge after Finalize";
  EdgeRecord edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  edge.payload = oracle_->BasePayload(enc);
  pending_base_.push_back(std::move(edge));
}

GraphEngine::~GraphEngine() = default;

void EngineStats::SyncFromMetrics() {
  base_edges = metrics.CounterOr("engine_base_edges_total");
  final_edges = metrics.CounterOr("engine_final_edges_total");
  pair_loads = metrics.CounterOr("engine_pair_loads_total");
  join_rounds = metrics.CounterOr("engine_join_rounds_total");
  joins_attempted = metrics.CounterOr("engine_joins_attempted_total");
  edges_added = metrics.CounterOr("engine_edges_added_total");
  unsat_pruned = metrics.CounterOr("engine_unsat_pruned_total");
  widened_triples = metrics.CounterOr("engine_widened_triples_total");
  partition_splits = metrics.CounterOr("engine_partition_splits_total");
  merge_memo_hits = metrics.CounterOr("engine_merge_memo_hits_total");
  timed_out = metrics.GaugeOr("engine_timed_out") > 0;
  num_partitions = static_cast<size_t>(metrics.GaugeOr("engine_num_partitions"));
  peak_partitions = static_cast<size_t>(metrics.GaugeOr("engine_peak_partitions"));
  preprocess_seconds = metrics.SecondsOf("engine_preprocess_ns");
  compute_seconds = metrics.SecondsOf("engine_compute_ns");
  oracle.merges = metrics.CounterOr("oracle_merges_total");
  oracle.constraints_checked = metrics.CounterOr("oracle_constraints_checked_total");
  oracle.cache_hits = metrics.CounterOr("oracle_cache_hits_total");
  oracle.unsat = metrics.CounterOr("oracle_unsat_total");
  oracle.unknown = metrics.CounterOr("oracle_unknown_total");
  oracle.lookup_seconds = metrics.SecondsOf("oracle_lookup_ns");
  oracle.solve_seconds = metrics.SecondsOf("oracle_solve_ns");
  phase_seconds.clear();
  const std::string prefix = obs::kPhaseNsPrefix;
  const std::string suffix = obs::kPhaseNsSuffix;
  for (const auto& [name, nanos] : metrics.counters) {
    if (name.size() > prefix.size() + suffix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      std::string phase = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
      phase_seconds[phase] = static_cast<double>(nanos) / 1e9;
    }
  }
}

std::string EngineStats::ToString() const { return obs::RenderEngineSummary(metrics); }

void GraphEngine::Finalize(VertexId num_vertices) {
  GRAPPLE_CHECK(!finalized_);
  finalized_ = true;
  obs::Scope scope(kFinalizeScope);
  WallTimer timer;
  index_ = std::make_unique<EdgeDedupIndex>();
  if (options_.checkpoint_interval > 0) {
    // Fingerprint the input (base edges + vertex count) so a manifest left
    // behind by a run over *different* inputs is rejected, not resumed.
    uint64_t fp = 1469598103934665603ULL;
    auto mix = [&fp](uint64_t v) {
      fp ^= v;
      fp *= 1099511628211ULL;
    };
    mix(num_vertices);
    for (const auto& edge : pending_base_) {
      mix(EdgeContentHash(edge.src, edge.dst, edge.label, edge.payload.data(),
                          edge.payload.size()));
    }
    base_fingerprint_ = fp;
    if (TryResume(num_vertices)) {
      pending_base_.clear();
      pending_base_.shrink_to_fit();
      metrics_.AddNanos(c_preprocess_ns_, timer.ElapsedNanos());
      stats_.preprocess_seconds = timer.ElapsedSeconds();
      stats_.num_partitions = store_.NumPartitions();
      stats_.peak_partitions = store_.NumPartitions();
      metrics_.SetGauge("engine_num_partitions", static_cast<double>(store_.NumPartitions()));
      metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
      fault::CrashPoint("finalize_done");
      return;
    }
    // No usable manifest: scrub any leftovers of a dead run from the work
    // dir so stale partition bytes cannot leak into this run's state.
    store_.CleanWorkDirForFreshStart();
  }
  // Expand unary/mirror closures and dedup.
  std::vector<EdgeRecord> expanded;
  expanded.reserve(pending_base_.size() * 2);
  ClosureExpander expander(grammar_);
  std::vector<uint64_t> hashes;
  for (const auto& edge : pending_base_) {
    const std::vector<ClosureItem>& closure = expander.Expand(edge.src, edge.dst, edge.label);
    hashes.assign(closure.size(), 0);
    for (size_t k = 0; k < closure.size(); ++k) {
      const ClosureItem& item = closure[k];
      hashes[k] = EdgeContentHash(item.src, item.dst, item.label, edge.payload.data(),
                                  edge.payload.size());
      if (!index_->content.Insert(hashes[k])) {
        continue;
      }
      ++index_->variants[EdgeTripleHash(item.src, item.dst, item.label)];
      if (provenance_ != nullptr) {
        obs::ProvEdge prov = ProvEdgeOf(item.src, item.dst, item.label);
        if (item.parent < 0) {
          provenance_->RecordBase(hashes[k], prov, edge.payload.data(), edge.payload.size());
        } else {
          const ClosureItem& parent = closure[static_cast<size_t>(item.parent)];
          provenance_->RecordRewrite(hashes[k], prov, edge.payload.data(), edge.payload.size(),
                                     hashes[static_cast<size_t>(item.parent)],
                                     ProvEdgeOf(parent.src, parent.dst, parent.label));
        }
      }
      EdgeRecord record;
      record.src = item.src;
      record.dst = item.dst;
      record.label = item.label;
      record.payload = edge.payload;
      expanded.push_back(std::move(record));
    }
  }
  pending_base_.clear();
  pending_base_.shrink_to_fit();
  stats_.base_edges = expanded.size();
  metrics_.Add(c_base_edges_, expanded.size());
  store_.Initialize(std::move(expanded), num_vertices, BudgetBytes() / 4);
  metrics_.AddNanos(c_preprocess_ns_, timer.ElapsedNanos());
  stats_.preprocess_seconds = timer.ElapsedSeconds();
  stats_.num_partitions = store_.NumPartitions();
  stats_.peak_partitions = store_.NumPartitions();
  metrics_.SetGauge("engine_num_partitions", static_cast<double>(store_.NumPartitions()));
  metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
  fault::CrashPoint("finalize_done");
}

bool GraphEngine::TryResume(VertexId num_vertices) {
  CheckpointManifest manifest;
  std::string error;
  if (!LoadCheckpointManifest(options_.work_dir, &manifest, &error)) {
    if (!error.empty()) {
      GRAPPLE_LOG(WARNING) << "ignoring checkpoint in " << options_.work_dir << ": " << error
                           << "; starting fresh";
    }
    return false;
  }
  if (manifest.num_vertices != num_vertices || manifest.base_fingerprint != base_fingerprint_) {
    GRAPPLE_LOG(WARNING) << "checkpoint in " << options_.work_dir
                         << " was produced by a different input; starting fresh";
    return false;
  }
  if (manifest.has_provenance != (provenance_ != nullptr)) {
    GRAPPLE_LOG(WARNING) << "checkpoint in " << options_.work_dir
                         << " was recorded with provenance "
                         << (manifest.has_provenance ? "on" : "off")
                         << " but this run has it " << (provenance_ != nullptr ? "on" : "off")
                         << "; starting fresh";
    return false;
  }
  // Validate the provenance log up front, before any state is mutated, so
  // most failures leave the engine pristine for the fresh-start path.
  const std::string prov_path = store_.ProvenancePath();
  if (manifest.has_provenance && manifest.provenance_bytes > 0) {
    int64_t on_disk = FileSizeBytes(prov_path);
    if (on_disk < 0 || static_cast<uint64_t>(on_disk) < manifest.provenance_bytes) {
      GRAPPLE_LOG(WARNING) << "provenance log " << prov_path << " is "
                           << (on_disk < 0 ? "missing" : "shorter than the checkpoint recorded")
                           << "; starting fresh";
      return false;
    }
  }
  if (!store_.RestoreFromCheckpoint(manifest.partitions, manifest.file_counter, num_vertices,
                                    &error)) {
    GRAPPLE_LOG(WARNING) << "checkpoint restore failed: " << error << "; starting fresh";
    return false;
  }
  if (manifest.has_provenance) {
    // Drop log bytes the dead run appended past the manifest's high-water
    // mark; the resumed run re-derives (and re-records) everything after it.
    if (FileExists(prov_path) && !TruncateFile(prov_path, manifest.provenance_bytes, &error)) {
      GRAPPLE_LOG(WARNING) << "could not truncate provenance log: " << error
                           << "; starting fresh";
      return false;  // caller scrubs the work dir; Initialize() rebuilds the store
    }
    provenance_->ResumeAt(manifest.provenance_bytes, manifest.provenance_records);
  }
  index_->content.Reserve(manifest.dedup_hashes.size());
  for (uint64_t hash : manifest.dedup_hashes) {
    index_->content.Insert(hash);
  }
  index_->variants.Reserve(manifest.variants.size());
  for (const auto& [triple, count] : manifest.variants) {
    index_->variants[triple] = count;
  }
  for (const CheckpointManifest::PairDone& pd : manifest.pair_done) {
    pair_done_[{static_cast<size_t>(pd.i), static_cast<size_t>(pd.j)}] = {pd.vi, pd.vj};
  }
  stats_.base_edges = manifest.base_edges;
  metrics_.Add(c_base_edges_, manifest.base_edges);
  metrics_.Add(c_runs_resumed_);
  GRAPPLE_LOG(INFO) << "resumed from checkpoint in " << options_.work_dir << " ("
                    << manifest.partitions.size() << " partitions, "
                    << manifest.dedup_hashes.size() << " unique edges)";
  return true;
}

void GraphEngine::WriteCheckpoint() {
  fault::CrashPoint("ckpt_begin");
  obs::Scope scope(kCkptScope, &metrics_, c_phase_ckpt_ns_);
  // Quiesce: every queued write must be on disk (well, in the page cache —
  // the threat model is process death, see checkpoint.h) before the
  // manifest that references those bytes is published.
  store_.Sync();
  if (provenance_ != nullptr) {
    provenance_->Flush();
  }
  CheckpointManifest manifest;
  manifest.num_vertices = store_.num_vertices();
  manifest.base_fingerprint = base_fingerprint_;
  manifest.base_edges = stats_.base_edges;
  manifest.file_counter = store_.file_counter();
  manifest.partitions = store_.SnapshotForCheckpoint();
  manifest.pair_done.reserve(pair_done_.size());
  for (const auto& [pair, versions] : pair_done_) {
    manifest.pair_done.push_back({pair.first, pair.second, versions.first, versions.second});
  }
  manifest.dedup_hashes.reserve(index_->content.size());
  index_->content.ForEach([&](uint64_t hash) { manifest.dedup_hashes.push_back(hash); });
  std::sort(manifest.dedup_hashes.begin(), manifest.dedup_hashes.end());
  manifest.variants.reserve(index_->variants.size());
  index_->variants.ForEach(
      [&](uint64_t triple, uint32_t count) { manifest.variants.emplace_back(triple, count); });
  std::sort(manifest.variants.begin(), manifest.variants.end());
  if (provenance_ != nullptr) {
    manifest.has_provenance = true;
    manifest.provenance_bytes = provenance_->bytes_written();
    manifest.provenance_records = provenance_->records_written();
  }
  uint64_t bytes = 0;
  std::string error;
  if (!SaveCheckpointManifest(options_.work_dir, manifest, &bytes, &error)) {
    throw IoError("checkpoint publish failed: " + error);
  }
  metrics_.Add(c_ckpt_written_);
  metrics_.Add(c_ckpt_bytes_, bytes);
  live_ckpts_published_.fetch_add(1, std::memory_order_relaxed);
  since_last_checkpoint_.Reset();
  store_.MarkCheckpointPublished();
  // The files retired since the previous manifest are no longer referenced
  // by anything on disk; now they can actually go.
  store_.CollectGarbage();
  fault::CrashPoint("ckpt_gc_done");
}

void GraphEngine::Run() {
  GRAPPLE_CHECK(finalized_) << "call Finalize before Run";
  obs::Scope scope(kRunScope);
  evt::Emit(evt::kRunStart, store_.NumPartitions());
  bool timed_out = false;
  WallTimer timer;
  for (;;) {
    if (options_.max_seconds > 0 && timer.ElapsedSeconds() > options_.max_seconds) {
      timed_out = true;
      break;
    }
    // Pick the next stale pair (i <= j).
    bool found = false;
    size_t pick_i = 0;
    size_t pick_j = 0;
    size_t n = store_.NumPartitions();
    for (size_t i = 0; i < n && !found; ++i) {
      for (size_t j = i; j < n && !found; ++j) {
        auto versions = std::make_pair(store_.Info(i).version, store_.Info(j).version);
        auto it = pair_done_.find({i, j});
        if (it == pair_done_.end() || it->second != versions) {
          pick_i = i;
          pick_j = j;
          found = true;
        }
      }
    }
    if (!found) {
      break;
    }
    // Read ahead: prefetch the pair the scan would pick next (exact when
    // this pair converges without writes — the common case during the final
    // fixpoint sweep) so its partitions load from cache.
    size_t next_i = 0;
    size_t next_j = 0;
    if (PredictNextPair(pick_i, pick_j, &next_i, &next_j)) {
      store_.Hint({next_i, next_j});
    }
    live_pair_.store((static_cast<uint64_t>(pick_i) << 32) | static_cast<uint64_t>(pick_j),
                     std::memory_order_relaxed);
    evt::Emit(evt::kPairStart, pick_i, pick_j);
    {
      obs::ProfPair prof_pair(static_cast<uint32_t>(pick_i), static_cast<uint32_t>(pick_j));
      ProcessPair(pick_i, pick_j);
    }
    evt::Emit(evt::kPairEnd, pick_i, pick_j);
    live_pair_.store(kNoLivePair, std::memory_order_relaxed);
    live_pairs_done_.fetch_add(1, std::memory_order_relaxed);
    fault::CrashPoint("run_pair_done");
    // Interval reached AND the spacing window elapsed; otherwise the
    // counter stays saturated and the next pair re-checks the clock.
    if (options_.checkpoint_interval > 0 &&
        ++pairs_since_checkpoint_ >= options_.checkpoint_interval &&
        since_last_checkpoint_.ElapsedSeconds() >= options_.checkpoint_min_spacing_seconds) {
      WriteCheckpoint();
      pairs_since_checkpoint_ = 0;
    }
  }
  // The payload ids and the memo serve only the closure; an engine kept for
  // its results must not hold them.
  payloads_.Clear();
  if (memo_ != nullptr) {
    memo_->Clear();
  }
  // Write-behind barrier: the on-disk state must be complete when Run()
  // returns (result iteration, witness decoding, external readers).
  store_.Sync();
  if (provenance_ != nullptr) {
    provenance_->Flush();
  }
  if (options_.checkpoint_interval > 0) {
    // Final manifest: a kill between here and the caller consuming results
    // resumes into an already-converged fixpoint (the scheduler finds no
    // stale pair) and regenerates identical reports.
    WriteCheckpoint();
    fault::CrashPoint("run_complete");
  }
  evt::Emit(evt::kRunEnd, live_pairs_done_.load(std::memory_order_relaxed));
  metrics_.AddNanos(c_compute_ns_, timer.ElapsedNanos());
  metrics_.Add(c_final_edges_, store_.TotalEdges());
  metrics_.SetGauge("engine_num_partitions", static_cast<double>(store_.NumPartitions()));
  metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
  metrics_.SetGauge("engine_timed_out", timed_out ? 1.0 : 0.0);
  // The registry (merged with the oracle's) is the source of truth; the
  // legacy named fields become a view over it.
  stats_.metrics = Metrics();
  stats_.SyncFromMetrics();
}

bool GraphEngine::PredictNextPair(size_t pi, size_t pj, size_t* next_i, size_t* next_j) const {
  // Mirror the Run() scan, starting just past (pi, pj): assuming that pair
  // converges (no version bumps, no splits), the first stale pair after it
  // is exactly what the scheduler picks next.
  size_t n = store_.NumPartitions();
  size_t i = pi;
  size_t j = pj + 1;
  for (; i < n; ++i, j = i) {
    for (; j < n; ++j) {
      auto versions = std::make_pair(store_.Info(i).version, store_.Info(j).version);
      auto it = pair_done_.find({i, j});
      if (it == pair_done_.end() || it->second != versions) {
        *next_i = i;
        *next_j = j;
        return true;
      }
    }
  }
  return false;
}

obs::MetricsSnapshot GraphEngine::Metrics() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.Merge(oracle_->Metrics());
  // Process-wide robustness gauges (byte_io retries, fault shim). Gauges,
  // not counters: several engines in one process observe the same totals,
  // and snapshot merges take the max rather than double-counting.
  snapshot.gauges["io_retries"] = static_cast<double>(IoRetriesTotal());
  snapshot.gauges["faults_injected"] = static_cast<double>(fault::InjectedCount());
  return snapshot;
}

void GraphEngine::ProcessPair(size_t pi, size_t pj) {
  metrics_.Add(c_pair_loads_);
  // Between pairs no edge holds a payload id, so this is where the payload
  // table and the memo are bounded: without a memo the table only serves
  // the resident pair, and with one both start over once the memo is full
  // or the table holds more than cache_capacity payloads.
  if (memo_ == nullptr || memo_->full() || payloads_.size() > options_.cache_capacity) {
    payloads_.Clear();
    if (memo_ != nullptr) {
      memo_->Clear();
    }
  }
  const PartitionInfo& info_i = store_.Info(pi);
  const PartitionInfo& info_j = store_.Info(pj);
  LoadedPair pair(grammar_, &payloads_, info_i.lo, info_i.hi, pi == pj ? info_i.lo : info_j.lo,
                  pi == pj ? info_i.hi : info_j.hi);

  std::vector<EdgeRecord> loaded = store_.Load(pi);
  size_t count_i = loaded.size();
  if (pi != pj) {
    std::vector<EdgeRecord> more = store_.Load(pj);
    loaded.insert(loaded.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  }
  for (const auto& edge : loaded) {
    pair.Insert(edge.src, edge.dst, edge.label,
                payloads_.Intern(edge.payload.data(), edge.payload.size()));
  }
  size_t total_loaded = loaded.size();
  loaded.clear();
  loaded.shrink_to_fit();

  obs::Scope scope(kJoinScope, &metrics_, c_phase_join_ns_);
  EdgeDedupIndex& index = *index_;
  ClosureExpander expander(grammar_);
  const std::vector<uint8_t> true_payload = oracle_->TruePayload();
  const uint32_t true_id = payloads_.Intern(true_payload.data(), true_payload.size());
  const bool record_prov = provenance_ != nullptr;

  // Delta frontier: if every join among the first EdgesAtVersion(vi) edges
  // of pi and EdgesAtVersion(vj) edges of pj is already done (pair_done_),
  // only edges recorded after those versions seed the frontier. Edge files
  // are append ordered, and rewrites and splits preserve prefix order, so
  // "new" is a suffix of each partition's load.
  size_t old_i = 0;
  size_t old_j = 0;
  auto prev_done = pair_done_.find({pi, pj});
  if (prev_done != pair_done_.end()) {
    old_i = store_.EdgesAtVersion(pi, prev_done->second.first);
    if (pi != pj) {
      old_j = store_.EdgesAtVersion(pj, prev_done->second.second);
    }
  }
  std::vector<uint32_t> frontier;
  std::vector<uint8_t> in_frontier(pair.NumEdges(), 0);
  for (size_t e = 0; e < total_loaded; ++e) {
    bool is_new = (e < count_i) ? e >= old_i : (e - count_i) >= old_j;
    if (is_new) {
      frontier.push_back(static_cast<uint32_t>(e));
      in_frontier[e] = 1;
    }
  }
  std::vector<EdgeRecord> external;
  bool changed_i = false;
  bool changed_j = false;
  bool complete = true;

  while (!frontier.empty()) {
    metrics_.Add(c_join_rounds_);
    obs::Scope round_scope(kJoinRoundScope);
    // --- parallel candidate generation ---
    // Shard count is pinned to the configured join parallelism, not to the
    // runtime's worker count: shards cover contiguous frontier ranges and
    // are integrated in index order below, so the result is identical for
    // any worker count and any steal policy.
    size_t shards = join_shards_;
    std::vector<ShardCandidates> shard_candidates;
    shard_candidates.reserve(shards);
    for (size_t shard = 0; shard < shards; ++shard) {
      shard_candidates.emplace_back(memo_.get(), &payloads_, oracle_);
    }
    std::atomic<uint64_t> joins{0};
    std::atomic<uint64_t> scan_visits{0};
    // The memo and the payload table are frozen until integration: shards
    // only read them, and each keeps its own misses in `merges`.
    auto join_shard = [&](size_t shard, size_t begin, size_t end) {
      obs::Scope shard_scope(kJoinShardScope);
      ShardCandidates& out = shard_candidates[shard];
      JoinIndex::Scan scan(pair.index());
      uint64_t local_joins = 0;
      // Joins a -> b (a.dst == b.src); a feasible result queues one
      // candidate per rule result, all sharing one payload.
      auto join = [&](const LoadedPair::MemEdge& a, const LoadedPair::MemEdge& b) {
        ++local_joins;
        ShardMerges::Answer answer = out.merges.Merge(a.payload, b.payload);
        if (!answer.feasible) {
          return;
        }
        Candidate c;
        c.src = a.src;
        c.dst = b.dst;
        c.interned = answer.interned;
        c.payload = answer.payload;
        if (record_prov) {
          c.parent_a = EdgeContentHash(a.src, a.dst, a.label, pair.PayloadOf(a),
                                       pair.PayloadLength(a));
          c.parent_b = EdgeContentHash(b.src, b.dst, b.label, pair.PayloadOf(b),
                                       pair.PayloadLength(b));
          c.a_edge = ProvEdgeOf(a.src, a.dst, a.label);
          c.b_edge = ProvEdgeOf(b.src, b.dst, b.label);
        }
        for (Label result : grammar_->BinaryResults(a.label, b.label)) {
          c.label = result;
          out.candidates.push_back(c);
        }
      };
      for (size_t f = begin; f < end; ++f) {
        const LoadedPair::MemEdge& e1 = pair.EdgeAt(frontier[f]);
        // Forward: e1 as the first edge of the pair.
        scan.Forward(e1.dst, e1.label, [&](uint32_t idx2) { join(e1, pair.EdgeAt(idx2)); });
        // Backward: e1 as the second edge; skip first edges that are in the
        // frontier themselves (their forward pass covers the pair).
        scan.Backward(e1.src, e1.label, in_frontier.data(),
                      [&](uint32_t idx0) { join(pair.EdgeAt(idx0), e1); });
      }
      joins.fetch_add(local_joins, std::memory_order_relaxed);
      scan_visits.fetch_add(scan.visits(), std::memory_order_relaxed);
    };
    size_t frontier_size = frontier.size();
    size_t shards_used = std::min(frontier_size, shards);
    if (shards_used <= 1) {
      if (frontier_size > 0) {
        join_shard(0, 0, frontier_size);
      }
    } else {
      // Explicit task objects on the unified runtime: one foreground task
      // per contiguous shard, tagged with this pair's locality key so the
      // locality-aware steal policy prefers to leave them where the pair's
      // Hint()ed partitions are warm. The group wait help-executes
      // unclaimed shards, so this cannot deadlock even when every runtime
      // worker is occupied by a checker task.
      uint32_t checker = obs::ProfCurrentChecker();
      uint64_t pair_key =
          (static_cast<uint64_t>(pi + 1) << 32) | static_cast<uint64_t>(pj + 1);
      size_t chunk = (frontier_size + shards_used - 1) / shards_used;
      TaskGroup group(runtime_);
      for (size_t shard = 0; shard < shards_used; ++shard) {
        size_t begin = shard * chunk;
        size_t end = std::min(frontier_size, begin + chunk);
        if (begin >= end) {
          continue;
        }
        group.Submit(TaskLane::kForeground, pair_key + shard,
                     [&, shard, begin, end, checker] {
                       obs::ProfChecker prof_checker(checker);
                       obs::ProfPair prof_pair(static_cast<uint32_t>(pi),
                                               static_cast<uint32_t>(pj));
                       join_shard(shard, begin, end);
                     });
      }
      group.Wait();
    }
    metrics_.Add(c_joins_attempted_, joins.load());
    metrics_.Add(c_join_scan_visits_, scan_visits.load());
    metrics_.Observe(h_join_round_joins_, joins.load());

    // --- sequential integration ---
    // Intern the shards' new payloads and record their misses in the memo,
    // in shard order, so ids and memo contents do not depend on which
    // worker ran which shard.
    for (ShardCandidates& shard : shard_candidates) {
      metrics_.Add(c_merge_memo_hits_, shard.merges.memo_hits());
      shard.merges.FoldInto(memo_.get(), &payloads_);
    }
    std::fill(in_frontier.begin(), in_frontier.end(), 0);
    std::vector<uint32_t> next_frontier;
    uint64_t round_added = 0;
    uint64_t round_widened = 0;
    // Content hash each closure record is stored under (or deduplicated
    // against), so rewrites can name their parent in the provenance log.
    std::vector<uint64_t> hashes;
    for (const ShardCandidates& shard : shard_candidates) {
      for (const Candidate& candidate : shard.candidates) {
        const uint32_t payload_id =
            candidate.interned ? candidate.payload : shard.merges.InternedId(candidate.payload);
        const uint8_t* payload = payloads_.data(payload_id);
        const uint32_t payload_len = payloads_.length(payload_id);
        const std::vector<ClosureItem>& closure =
            expander.Expand(candidate.src, candidate.dst, candidate.label);
        hashes.assign(closure.size(), 0);
        for (size_t k = 0; k < closure.size(); ++k) {
          const ClosureItem& item = closure[k];
          EdgeDedupIndex::Admission admission =
              index.Admit(item.src, item.dst, item.label, payload, payload_len, true_payload,
                          options_.max_variants_per_triple);
          hashes[k] = admission.content;
          if (!admission.added) {
            continue;
          }
          ++round_added;
          round_widened += admission.widened ? 1 : 0;
          const uint32_t stored_id = admission.widened ? true_id : payload_id;
          const uint8_t* stored = payloads_.data(stored_id);
          const uint32_t stored_len = payloads_.length(stored_id);
          if (record_prov) {
            obs::ProvEdge prov = ProvEdgeOf(item.src, item.dst, item.label);
            if (item.parent < 0) {
              // The join result itself.
              provenance_->RecordJoin(admission.content, prov, stored, stored_len,
                                      candidate.parent_a, candidate.a_edge, candidate.parent_b,
                                      candidate.b_edge, admission.widened);
            } else {
              // Unary/mirror rewrite of an earlier closure record.
              const ClosureItem& parent = closure[static_cast<size_t>(item.parent)];
              provenance_->RecordRewrite(admission.content, prov, stored, stored_len,
                                         hashes[static_cast<size_t>(item.parent)],
                                         ProvEdgeOf(parent.src, parent.dst, parent.label));
            }
          }
          if (pair.Owns(item.src)) {
            next_frontier.push_back(pair.Insert(item.src, item.dst, item.label, stored_id));
            in_frontier.push_back(1);
            if (item.src >= store_.Info(pi).lo && item.src < store_.Info(pi).hi) {
              changed_i = true;
            } else {
              changed_j = true;
            }
          } else {
            EdgeRecord record;
            record.src = item.src;
            record.dst = item.dst;
            record.label = item.label;
            record.payload.assign(stored, stored + stored_len);
            external.push_back(std::move(record));
          }
        }
      }
    }
    metrics_.Add(c_edges_added_, round_added);
    metrics_.Add(c_widened_triples_, round_widened);
    frontier = std::move(next_frontier);
    for (uint32_t idx : frontier) {
      in_frontier[idx] = 1;
    }
    // Eager memory guard: when the resident pair has outgrown the budget,
    // first try to borrow headroom from the shared arbiter (released by
    // engines that already finished); only if that fails stop the local
    // fixpoint early, write back (splitting), and reschedule. A pair whose
    // frontier just emptied has reached its fixpoint and completes anyway:
    // stopping it would reschedule it forever once its resident edges alone
    // exceed the budget.
    metrics_.MaxGauge("engine_peak_resident_bytes", static_cast<double>(pair.payload_bytes()));
    if (pair.payload_bytes() > BudgetBytes()) {
      uint64_t want = pair.payload_bytes() + pair.payload_bytes() / 2;
      if (options_.budget_lease != nullptr && options_.budget_lease->TryGrowTo(want)) {
        metrics_.Add(c_budget_borrows_);
        metrics_.SetGauge("engine_budget_bytes", static_cast<double>(BudgetBytes()));
        live_budget_bytes_.store(BudgetBytes(), std::memory_order_relaxed);
      } else if (!frontier.empty()) {
        metrics_.Add(c_budget_stops_);
        complete = false;
        break;
      }
    }
  }

  // --- write back ---
  uint64_t target = BudgetBytes() / 4;
  // Returns the number of partitions the interval spans afterwards.
  auto writeback = [&](size_t index_p, bool changed, VertexId lo, VertexId hi) -> size_t {
    if (!changed) {
      return 1;
    }
    std::vector<EdgeRecord> edges;
    uint64_t bytes = 0;
    for (size_t e = 0; e < pair.NumEdges(); ++e) {
      const auto& mem = pair.EdgeAt(e);
      if (mem.src >= lo && mem.src < hi) {
        edges.push_back(pair.ToRecord(mem));
        bytes += 16 + pair.PayloadLength(mem);
      }
    }
    if (bytes > target * 2 && hi - lo > 1) {
      size_t pieces = store_.SplitAndRewrite(index_p, std::move(edges), target);
      if (pieces > 1) {
        metrics_.Add(c_partition_splits_, pieces - 1);
        RemapPairDoneAfterSplit(index_p, pieces);
      }
      return pieces;
    }
    store_.Rewrite(index_p, edges);
    return 1;
  };

  // Write the higher-indexed partition first so index pi stays valid if pj
  // splits.
  size_t pieces_j = 0;
  if (pi != pj) {
    pieces_j = writeback(pj, changed_j, store_.Info(pj).lo, store_.Info(pj).hi);
  }
  size_t pieces_i = writeback(pi, changed_i || (pi == pj && changed_j), store_.Info(pi).lo,
                              store_.Info(pi).hi);

  if (complete) {
    // Every join among the resident edges ran while they were loaded, so
    // every pair drawn from the (possibly split) loaded partitions is done
    // at their post-write-back versions: (pi, pj), (pi, pi), (pj, pj) and
    // all child combinations. A pair that stopped early keeps its previous
    // (remapped) entry, whose prefixes the write-back preserved.
    std::vector<size_t> resident;
    for (size_t k = 0; k < pieces_i; ++k) {
      resident.push_back(pi + k);
    }
    for (size_t k = 0; k < pieces_j; ++k) {
      resident.push_back(pj + pieces_i - 1 + k);
    }
    for (size_t a = 0; a < resident.size(); ++a) {
      for (size_t b = a; b < resident.size(); ++b) {
        pair_done_[{resident[a], resident[b]}] = {store_.Info(resident[a]).version,
                                                  store_.Info(resident[b]).version};
      }
    }
  }

  // Flush externals grouped by owner.
  if (!external.empty()) {
    std::sort(external.begin(), external.end(),
              [](const EdgeRecord& a, const EdgeRecord& b) { return a.src < b.src; });
    size_t begin = 0;
    while (begin < external.size()) {
      size_t owner = store_.PartitionOf(external[begin].src);
      size_t end = begin;
      while (end < external.size() &&
             external[end].src < store_.Info(owner).hi) {
        ++end;
      }
      std::vector<EdgeRecord> chunk(external.begin() + static_cast<ptrdiff_t>(begin),
                                    external.begin() + static_cast<ptrdiff_t>(end));
      store_.Append(owner, chunk);
      begin = end;
    }
  }

  metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
}

void GraphEngine::RemapPairDoneAfterSplit(size_t split, size_t pieces) {
  // Partition `split` became [split, split + pieces); later indices shift
  // by pieces - 1. A piece's prefix at the parent's done-version is a
  // subset of the parent's, so each entry naming the parent holds for
  // every piece with its versions unchanged.
  auto first_of = [&](size_t p) { return p <= split ? p : p + pieces - 1; };
  auto count_of = [&](size_t p) { return p == split ? pieces : size_t{1}; };
  std::map<std::pair<size_t, size_t>, std::pair<uint64_t, uint64_t>> remapped;
  for (const auto& [pair, versions] : pair_done_) {
    for (size_t a = 0; a < count_of(pair.first); ++a) {
      for (size_t b = 0; b < count_of(pair.second); ++b) {
        size_t i = first_of(pair.first) + a;
        size_t j = first_of(pair.second) + b;
        if (i <= j) {
          remapped[{i, j}] = versions;
        }
      }
    }
  }
  pair_done_ = std::move(remapped);
}

void GraphEngine::ForEachEdge(const std::function<void(const EdgeRecord&)>& fn) {
  for (size_t p = 0; p < store_.NumPartitions(); ++p) {
    std::vector<EdgeRecord> edges = store_.Load(p);
    for (const auto& edge : edges) {
      fn(edge);
    }
  }
}

void GraphEngine::ForEachEdgeWithLabel(Label label,
                                       const std::function<void(const EdgeRecord&)>& fn) {
  ForEachEdge([&](const EdgeRecord& edge) {
    if (edge.label == label) {
      fn(edge);
    }
  });
}

}  // namespace grapple
