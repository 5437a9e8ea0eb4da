// Bus arbitration in simulated time.
//
// Concurrent DMA from multiple requesters (several VMs, host processes, the
// card) shares one PCIe link. The arbiter linearizes transfer *occupancy* on
// the simulated timeline: a transfer asks for the bus no earlier than the
// requester's own `ready` time and holds it for `duration`; the grant start
// is max(ready, time the bus frees up). Queueing under contention therefore
// emerges naturally — two VMs each see roughly half the link.
#pragma once

#include <cstdint>

#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::sim {

class BusArbiter {
 public:
  struct Grant {
    Nanos start;  ///< simulated time the transfer began moving
    Nanos end;    ///< simulated completion time
  };

  /// Reserve the bus for `duration` ns, not before `ready`.
  Grant acquire(Nanos ready, Nanos duration) VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const Nanos start = free_at_ > ready ? free_at_ : ready;
    const Nanos end = start + duration;
    free_at_ = end;
    busy_total_ += duration;
    return {start, end};
  }

  /// Total simulated busy time granted so far (utilization accounting).
  Nanos busy_total() const VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return busy_total_;
  }

 private:
  mutable Mutex mu_;
  Nanos free_at_ VPHI_GUARDED_BY(mu_) = 0;
  Nanos busy_total_ VPHI_GUARDED_BY(mu_) = 0;
};

}  // namespace vphi::sim
