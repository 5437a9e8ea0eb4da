// Cross-actor synchronization that carries simulated timestamps.
//
// Real condition variables provide *functional* blocking between simulator
// threads; the simulated timestamps attached to every handoff provide the
// *timing*: a consumer merges its logical clock with the producer's event
// time, so waiting costs come out of the model, never out of the wall clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::sim {

/// A one-directional event line (doorbell / interrupt wire). Each raise
/// carries a timestamp; waiters collect the latest raise time. Counting
/// semantics: every raise releases exactly one waiter (or is remembered).
class EventLine {
 public:
  /// Signal the line at simulated time `ts`.
  void raise(Nanos ts) VPHI_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      ++pending_;
      last_ts_ = std::max(last_ts_, ts);
    }
    cv_.notify_one();
  }

  /// Block until a raise is available (or close); returns the raise
  /// timestamp, or nullopt if closed with nothing pending.
  std::optional<Nanos> wait() VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_ == 0 && !closed_) cv_.wait(mu_);
    if (pending_ == 0) return std::nullopt;
    --pending_;
    return last_ts_;
  }

  /// Consume a pending raise if any, without blocking.
  std::optional<Nanos> try_wait() VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (pending_ == 0) return std::nullopt;
    --pending_;
    return last_ts_;
  }

  void close() VPHI_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::uint64_t pending() const VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return pending_;
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::uint64_t pending_ VPHI_GUARDED_BY(mu_) = 0;
  Nanos last_ts_ VPHI_GUARDED_BY(mu_) = 0;
  bool closed_ VPHI_GUARDED_BY(mu_) = false;
};

}  // namespace vphi::sim
