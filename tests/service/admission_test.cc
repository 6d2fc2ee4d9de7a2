// Admission-queue fairness contract (src/service/admission_queue.h):
// FIFO per (tenant, priority), round-robin across tenants within a
// priority class, strict priority across classes, bounded depth with
// explicit rejection, and a shutdown that hands unrun work back.
#include "src/service/admission_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace grapple {
namespace {

// Enqueues a no-op for `tenant` and returns its ticket (0 = rejected).
uint64_t Push(AdmissionQueue& queue, const std::string& tenant,
              int priority = kPriorityInteractive) {
  return queue.TryEnqueue(tenant, priority, [] {}, nullptr);
}

TEST(AdmissionQueueTest, FifoPerTenant) {
  AdmissionQueue queue(16);
  uint64_t t1 = Push(queue, "a");
  uint64_t t2 = Push(queue, "a");
  uint64_t t3 = Push(queue, "a");
  ASSERT_LT(t1, t2);
  ASSERT_LT(t2, t3);
  AdmissionItem item;
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, t1);
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, t2);
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, t3);
}

TEST(AdmissionQueueTest, RoundRobinAcrossTenants) {
  AdmissionQueue queue(16);
  // Tenant a floods before b shows up at all.
  Push(queue, "a");
  Push(queue, "a");
  Push(queue, "a");
  Push(queue, "b");
  std::vector<std::string> order;
  AdmissionItem item;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Dequeue(&item));
    order.push_back(item.tenant);
  }
  // b is served after a single a-dispatch, not after the whole flood.
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "a"}));
}

TEST(AdmissionQueueTest, InteractiveJumpsAheadOfBatch) {
  AdmissionQueue queue(16);
  Push(queue, "a", kPriorityBatch);
  Push(queue, "a", kPriorityBatch);
  uint64_t interactive = Push(queue, "b", kPriorityInteractive);
  AdmissionItem item;
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, interactive);
  EXPECT_EQ(item.priority, kPriorityInteractive);
}

TEST(AdmissionQueueTest, CapacityBoundsDepthAndRejectsWithReason) {
  AdmissionQueue queue(2);
  EXPECT_NE(Push(queue, "a"), 0u);
  EXPECT_NE(Push(queue, "a"), 0u);
  std::string why;
  EXPECT_EQ(queue.TryEnqueue("a", kPriorityInteractive, [] {}, &why), 0u);
  EXPECT_NE(why.find("full"), std::string::npos);
  AdmissionStats stats = queue.Stats();
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(AdmissionQueueTest, ShutdownReturnsUnrunWorkAndWakesConsumers) {
  AdmissionQueue queue(16);
  std::atomic<int> ran{0};
  queue.TryEnqueue("a", kPriorityInteractive, [&] { ran.fetch_add(1); }, nullptr);
  queue.TryEnqueue("b", kPriorityInteractive, [&] { ran.fetch_add(1); }, nullptr);
  std::thread consumer([&] {
    AdmissionItem item;
    // Blocks until shutdown, then returns false with nothing left to take.
    while (queue.Dequeue(&item)) {
      item.fn();
    }
  });
  // Give the consumer a chance to drain; then race shutdown against it.
  std::vector<AdmissionItem> leftover = queue.ShutdownAndDrain();
  consumer.join();
  // Every item either ran on the consumer or came back unrun — no loss, no
  // double dispatch.
  EXPECT_EQ(static_cast<size_t>(ran.load()) + leftover.size(), 2u);
  std::string why;
  EXPECT_EQ(queue.TryEnqueue("a", kPriorityInteractive, [] {}, &why), 0u);
  EXPECT_NE(why.find("shutting down"), std::string::npos);
}

// The concurrent contract: N flooding clients across M tenants, a victim
// tenant with one request, and a consumer pool. The victim must be served
// long before the floods drain (no starvation), per-tenant dispatch must be
// FIFO, and every admitted item must run exactly once.
TEST(AdmissionQueueTest, FloodingTenantsCannotStarveOthers) {
  constexpr int kFloodTenants = 3;
  constexpr int kPerTenant = 40;
  AdmissionQueue queue(kFloodTenants * kPerTenant + 8);

  std::mutex mu;
  // Per tenant: (dispatch_seq, ticket). Consumers record after Dequeue
  // returns, outside the queue lock, so arrival order here is arbitrary;
  // the queue's dispatch_seq stamp is the order that counts.
  std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>> dispatch_order;
  std::atomic<int> dispatched{0};
  std::atomic<int64_t> victim_position{-1};

  // Floods are fully queued before the victim arrives — worst case for it.
  for (int t = 0; t < kFloodTenants; ++t) {
    std::string tenant = "flood" + std::to_string(t);
    for (int i = 0; i < kPerTenant; ++i) {
      ASSERT_NE(queue.TryEnqueue(tenant, kPriorityInteractive, [] {}, nullptr), 0u);
    }
  }
  uint64_t victim_ticket =
      queue.TryEnqueue("victim", kPriorityInteractive, [] {}, nullptr);
  ASSERT_NE(victim_ticket, 0u);

  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      AdmissionItem item;
      while (queue.Dequeue(&item)) {
        dispatched.fetch_add(1);
        if (item.ticket == victim_ticket) {
          victim_position.store(static_cast<int64_t>(item.dispatch_seq) - 1);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          dispatch_order[item.tenant].emplace_back(item.dispatch_seq, item.ticket);
        }
        item.fn();
        if (dispatched.load() >= kFloodTenants * kPerTenant + 1) {
          break;
        }
      }
    });
  }
  // Everything drains; unblock any consumer still parked in Dequeue.
  while (dispatched.load() < kFloodTenants * kPerTenant + 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.ShutdownAndDrain();
  for (auto& consumer : consumers) {
    consumer.join();
  }

  EXPECT_EQ(dispatched.load(), kFloodTenants * kPerTenant + 1);
  // Round-robin bounds the victim's wait to one dispatch per tenant per
  // rotation: it is served within the first rotation after it arrives, not
  // behind 120 flood requests.
  EXPECT_GE(victim_position.load(), 0);
  EXPECT_LT(victim_position.load(), kFloodTenants + 1);
  // Per-tenant FIFO: in dispatch order, a tenant's tickets are increasing.
  for (auto& [tenant, order] : dispatch_order) {
    std::sort(order.begin(), order.end());
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_LT(order[i - 1].second, order[i].second) << "out-of-order dispatch for " << tenant;
    }
  }
}

}  // namespace
}  // namespace grapple
