// Per-thread ring recycling (src/obs/ring_pool.h): the flight recorder and
// the sampling profiler hold as many rings as the process ever ran threads
// at once, not one per thread it ever started.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "src/obs/event_log.h"
#include "src/obs/profiler.h"
#include "src/obs/ring_pool.h"
#include "src/obs/scope.h"
#include "src/support/event_hook.h"

namespace grapple {
namespace obs {
namespace {

struct ToyRing {
  explicit ToyRing(size_t size) : size(size) {}
  size_t size;
};

TEST(RingPoolTest, ParkedRingsAreReusedBeforeNewOnesAreMade) {
  RingPool<ToyRing> pool;
  auto fits = [](size_t want) { return [want](const ToyRing& r) { return r.size == want; }; };
  auto make = [](size_t size) { return [size](size_t) { return new ToyRing(size); }; };
  ToyRing* a = pool.Acquire(fits(8), make(8));
  ToyRing* b = pool.Acquire(fits(8), make(8));
  EXPECT_NE(a, b);
  pool.Release(a);
  EXPECT_EQ(pool.Acquire(fits(8), make(8)), a);  // parked ring reused
  pool.Release(b);
  ToyRing* c = pool.Acquire(fits(16), make(16));  // b does not fit
  EXPECT_NE(c, b);
  EXPECT_EQ(pool.all().size(), 3u);  // parked rings stay reachable
  for (ToyRing* ring : pool.all()) {
    delete ring;
  }
}

// 64 threads run one after another, each emitting a flight event and
// setting a profiler phase while the profiler samples them. Each takes the
// rings its predecessor parked, so neither pool grows by more than 2.
TEST(RingPoolTest, SequentialThreadsShareRings) {
  EventLogInstall();
  ASSERT_TRUE(ProfilerStart(1000));
  const ScopeName phase("t_ring_pool_phase");
  size_t event_rings = EventLogRingCount();
  size_t profiler_rings = ProfilerRingCount();
  for (uint32_t i = 0; i < 64; ++i) {
    std::thread worker([&phase, i] {
      evt::Emit(evt::kPairStart, 0x52494e47, i);
      Scope scope(phase);
    });
    worker.join();
    EXPECT_LE(EventLogRingCount(), event_rings + 2) << "after thread " << i;
    EXPECT_LE(ProfilerRingCount(), profiler_rings + 2) << "after thread " << i;
  }
  ProfilerStop();
}

}  // namespace
}  // namespace obs
}  // namespace grapple
