// obs::Scope: the one way to time a phase (DESIGN.md §8).
//
// A Scope brackets a block of work under a phase name and does three
// things at once:
//   * with a MetricsRegistry, adds the block's exact wall nanoseconds to the
//     caller's pre-registered "phase_<name>_ns" counter (the Figure 9
//     buckets and EngineStats::phase_seconds read these);
//   * sets the sampling profiler's thread-local phase tag for the block and
//     restores the enclosing tag on exit (DESIGN.md §13);
//   * emits kScopeBegin/kScopeEnd flight events carrying the interned name,
//     which the GRAPPLE_TRACE export draws as Chrome B/E spans
//     (DESIGN.md §12).
//
// Names are interned once per call site, not per Scope:
//
//   const obs::ScopeName kJoinScope("join");            // namespace scope
//   c_phase_join_ns_ = metrics_.Counter("phase_join_ns");
//   ...
//   obs::Scope scope(kJoinScope, &metrics_, c_phase_join_ns_);
//
// Without a registry a Scope only tags and emits; it reads no clock.
#ifndef GRAPPLE_SRC_OBS_SCOPE_H_
#define GRAPPLE_SRC_OBS_SCOPE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "src/obs/metrics.h"

namespace grapple {
namespace obs {

namespace profiler_internal {
struct ThreadProf;
}  // namespace profiler_internal

// A phase name interned into the event-log string table.
class ScopeName {
 public:
  explicit ScopeName(const std::string& name);
  uint32_t id() const { return id_; }

 private:
  uint32_t id_;
};

class Scope {
 public:
  explicit Scope(const ScopeName& name, MetricsRegistry* registry = nullptr,
                 MetricId ns_counter = kInvalidMetric);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  uint32_t name_id_;
  MetricsRegistry* registry_;
  MetricId ns_counter_;
  std::chrono::steady_clock::time_point start_;
  profiler_internal::ThreadProf* tp_ = nullptr;
  uint32_t prev_phase_ = 0;
};

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_SCOPE_H_
