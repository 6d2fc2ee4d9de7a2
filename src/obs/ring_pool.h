// Per-thread ring recycling shared by the flight recorder (event_log.cc)
// and the sampling profiler (profiler.cc).
//
// Both give every thread that records a fixed-capacity ring of its own, and
// neither ever frees one: a crash dump must still reach the tail a dead
// thread left behind. Instead, a thread's ring is parked when the thread
// exits and handed to the next new thread, so memory follows the peak
// number of live threads, not the number of threads a long-lived process
// ever started (a task runtime per session, a daemon's handler pool).
//
// The pool has no lock of its own: every call runs under the owning
// subsystem's mutex, which also guards what the owner does with the rings.
#ifndef GRAPPLE_SRC_OBS_RING_POOL_H_
#define GRAPPLE_SRC_OBS_RING_POOL_H_

#include <cstddef>
#include <vector>

namespace grapple {
namespace obs {

template <typename Ring>
class RingPool {
 public:
  // Every ring ever made, in creation order; parked rings included.
  const std::vector<Ring*>& all() const { return all_; }

  // The oldest parked ring that `fits`, else a new one from `make(index)`,
  // where `index` is its position in all().
  template <typename Fits, typename Make>
  Ring* Acquire(Fits fits, Make make) {
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
      if (fits(**it)) {
        Ring* ring = *it;
        parked_.erase(it);
        return ring;
      }
    }
    all_.push_back(make(all_.size()));
    return all_.back();
  }

  // Parks `ring` (its owner thread is exiting) for the next new thread.
  void Release(Ring* ring) { parked_.push_back(ring); }

 private:
  std::vector<Ring*> all_;
  std::vector<Ring*> parked_;  // oldest first
};

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_RING_POOL_H_
