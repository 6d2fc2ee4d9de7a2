#include "src/service/admission_queue.h"

#include <algorithm>

namespace grapple {

AdmissionQueue::AdmissionQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

uint64_t AdmissionQueue::TryEnqueue(const std::string& tenant, int priority,
                                    std::function<void()> fn, std::string* why) {
  priority = std::clamp(priority, 0, kNumPriorities - 1);
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    if (why != nullptr) {
      *why = "service is shutting down";
    }
    return 0;
  }
  if (depth_ >= capacity_) {
    ++rejected_;
    if (why != nullptr) {
      *why = "admission queue full (" + std::to_string(capacity_) + " queued)";
    }
    return 0;
  }
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    tenant_order_.push_back(tenant);
  }
  AdmissionItem item;
  item.ticket = next_ticket_++;
  item.tenant = tenant;
  item.priority = priority;
  item.fn = std::move(fn);
  uint64_t ticket = item.ticket;
  it->second.by_priority[priority].push_back(std::move(item));
  ++it->second.total;
  ++depth_;
  depth_peak_ = std::max(depth_peak_, depth_);
  ++per_tenant_admitted_[tenant];
  cv_.notify_one();
  return ticket;
}

bool AdmissionQueue::PickLocked(AdmissionItem* out) {
  if (depth_ == 0) {
    return false;
  }
  for (int priority = 0; priority < kNumPriorities; ++priority) {
    size_t n = tenant_order_.size();
    for (size_t step = 0; step < n; ++step) {
      size_t index = (rr_cursor_[priority] + step) % n;
      TenantQueues& queues = tenants_[tenant_order_[index]];
      std::deque<AdmissionItem>& q = queues.by_priority[priority];
      if (q.empty()) {
        continue;
      }
      *out = std::move(q.front());
      q.pop_front();
      --queues.total;
      --depth_;
      out->dispatch_seq = ++dispatched_;
      // Next dispatch in this class starts at the following tenant, which
      // is what keeps a flooding tenant at one dispatch per rotation.
      rr_cursor_[priority] = (index + 1) % n;
      return true;
    }
  }
  return false;  // unreachable while depth_ bookkeeping holds
}

bool AdmissionQueue::Dequeue(AdmissionItem* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return depth_ > 0 || shutdown_; });
  return PickLocked(out);
}

std::vector<AdmissionItem> AdmissionQueue::ShutdownAndDrain() {
  std::vector<AdmissionItem> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    AdmissionItem item;
    while (PickLocked(&item)) {
      // Drained, not dispatched: undo the dispatch count so stats reflect
      // what actually ran.
      --dispatched_;
      leftover.push_back(std::move(item));
    }
  }
  cv_.notify_all();
  return leftover;
}

AdmissionStats AdmissionQueue::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionStats stats;
  stats.depth = depth_;
  stats.depth_peak = depth_peak_;
  stats.admitted = next_ticket_ - 1;
  stats.rejected = rejected_;
  stats.dispatched = dispatched_;
  stats.per_tenant_admitted = per_tenant_admitted_;
  return stats;
}

}  // namespace grapple
