// Bounded, tenant-fair admission queue for the grappled analysis daemon
// (DESIGN.md §15).
//
// Every check request entering the service passes through one of these:
// admission either assigns the request a globally monotonic ticket and
// queues it, or rejects it outright when the queue is full (backpressure the
// client can see, instead of unbounded memory growth under overload).
//
// Dispatch order is the fairness contract of the service:
//   * FIFO per (tenant, priority): a tenant's requests of equal priority are
//     dispatched strictly in ticket order.
//   * Round-robin across tenants within a priority class: a tenant flooding
//     the queue gets one dispatch per rotation like everyone else, so it
//     cannot starve the other tenants.
//   * Priority classes are strict across tenants: any queued interactive
//     (priority 0) request dispatches before any batch (priority 1) one.
//     Starvation of batch work is bounded by the queue capacity — a flood of
//     interactive requests hits the admission bound and gets rejected.
//
// Thread-safe; any number of producers (HTTP handler threads) and consumers
// (service workers) may call concurrently.
#ifndef GRAPPLE_SRC_SERVICE_ADMISSION_QUEUE_H_
#define GRAPPLE_SRC_SERVICE_ADMISSION_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace grapple {

// Priority classes. Lower value = served first.
inline constexpr int kPriorityInteractive = 0;
inline constexpr int kPriorityBatch = 1;
inline constexpr int kNumPriorities = 2;

// One admitted request as handed to a dispatcher.
struct AdmissionItem {
  uint64_t ticket = 0;  // globally monotonic admission order, starts at 1
  // Global dispatch order, starts at 1: stamped under the queue lock when
  // the item is picked, so it is the true order the policy chose, not the
  // order in which concurrent consumers got around to looking at items.
  uint64_t dispatch_seq = 0;
  std::string tenant;
  int priority = kPriorityBatch;
  std::function<void()> fn;  // the work; run by the dispatching worker
};

struct AdmissionStats {
  size_t depth = 0;          // currently queued
  size_t depth_peak = 0;     // high-water mark of depth
  uint64_t admitted = 0;     // total tickets issued
  uint64_t rejected = 0;     // total TryEnqueue failures (queue full)
  uint64_t dispatched = 0;   // total items handed to Dequeue callers
  std::map<std::string, uint64_t> per_tenant_admitted;
};

class AdmissionQueue {
 public:
  // `capacity` bounds the number of queued (admitted, not yet dispatched)
  // requests; 0 degrades to 1.
  explicit AdmissionQueue(size_t capacity);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Admits the request and returns its ticket (> 0), or returns 0 with
  // *why set when the queue is at capacity or shut down. Priorities outside
  // [0, kNumPriorities) are clamped.
  uint64_t TryEnqueue(const std::string& tenant, int priority, std::function<void()> fn,
                      std::string* why);

  // Blocks for the next request per the fairness policy above. Returns
  // false when the queue is shut down and drained.
  bool Dequeue(AdmissionItem* out);

  // Stops admission and wakes every blocked Dequeue. Items still queued are
  // returned to the caller (their fns have NOT run) so the service can fail
  // them explicitly instead of dropping them on the floor.
  std::vector<AdmissionItem> ShutdownAndDrain();

  size_t capacity() const { return capacity_; }
  AdmissionStats Stats() const;

 private:
  struct TenantQueues {
    std::deque<AdmissionItem> by_priority[kNumPriorities];
    size_t total = 0;
  };

  // Picks the next item under mu_; false when nothing is queued.
  bool PickLocked(AdmissionItem* out);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  uint64_t next_ticket_ = 1;
  size_t depth_ = 0;
  size_t depth_peak_ = 0;
  uint64_t rejected_ = 0;
  uint64_t dispatched_ = 0;
  std::map<std::string, uint64_t> per_tenant_admitted_;
  std::map<std::string, TenantQueues> tenants_;
  // Round-robin rotation: tenant names in first-seen order plus one cursor
  // per priority class, so each class rotates independently.
  std::vector<std::string> tenant_order_;
  size_t rr_cursor_[kNumPriorities] = {0, 0};
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SERVICE_ADMISSION_QUEUE_H_
