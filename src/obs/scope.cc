#include "src/obs/scope.h"

#include "src/obs/event_log.h"
#include "src/obs/profiler.h"
#include "src/support/event_hook.h"

namespace grapple {
namespace obs {

ScopeName::ScopeName(const std::string& name) : id_(EventLogInternString(name)) {}

Scope::Scope(const ScopeName& name, MetricsRegistry* registry, MetricId ns_counter)
    : name_id_(name.id()), registry_(registry), ns_counter_(ns_counter) {
  evt::Emit(evt::kScopeBegin, name_id_);
  tp_ = profiler_internal::CurrentThreadProf();
  if (tp_ != nullptr) {
    // Profiler phase ids are string-table ids offset by one (0 = none).
    prev_phase_ = profiler_internal::SwapPhase(tp_, name_id_ + 1);
  }
  if (registry_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

Scope::~Scope() {
  if (registry_ != nullptr) {
    registry_->AddNanos(ns_counter_, static_cast<uint64_t>(
                                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::steady_clock::now() - start_)
                                             .count()));
  }
  if (tp_ != nullptr) {
    profiler_internal::SwapPhase(tp_, prev_phase_);
  }
  evt::Emit(evt::kScopeEnd, name_id_);
}

}  // namespace obs
}  // namespace grapple
