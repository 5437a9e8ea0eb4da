// The QEMU event loop.
//
// QEMU is event-driven: device emulation handlers run serialized on the main
// loop, and while one runs, the whole VM's other I/O stalls — cheap and
// race-free for short handlers, costly for long ones. For those, QEMU
// offloads to a worker thread and returns to the loop. Sec. III ("Blocking
// vs non-blocking mode") builds vPHI's per-opcode policy on exactly this
// tradeoff; this class provides both modes and the accounting (time the
// loop was held) the ablation bench A2 reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <thread>

#include "sim/actor.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::hv {

class EventLoop {
 public:
  using Handler = std::function<void(sim::Actor&)>;

  explicit EventLoop(std::string name);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Run `handler` on the loop thread (QEMU's blocking mode). Handlers are
  /// strictly serialized; a long handler freezes everything behind it.
  void post(Handler handler) VPHI_EXCLUDES(mu_);

  /// Run `handler` on a fresh worker thread (QEMU's threaded mode): the
  /// loop keeps spinning. The worker's actor starts at `start_ts` (time the
  /// handoff became visible). Workers that have finished are joined here,
  /// outside mu_, so a long run never piles up exited threads.
  void run_in_worker(Handler handler, sim::Nanos start_ts) VPHI_EXCLUDES(mu_);

  /// Block until every posted handler so far has run.
  void drain() VPHI_EXCLUDES(mu_);
  /// Join all worker threads spawned so far.
  void join_workers() VPHI_EXCLUDES(mu_);

  /// Stop the loop thread; pending handlers still run first.
  void stop() VPHI_EXCLUDES(mu_);

  sim::Actor& loop_actor() noexcept { return loop_actor_; }

  /// Cumulative simulated time handlers held the loop (the "VM frozen"
  /// account of the paper's blocking-mode discussion).
  sim::Nanos blocked_time() const VPHI_EXCLUDES(mu_);
  std::uint64_t handled() const VPHI_EXCLUDES(mu_);
  std::uint64_t workers_spawned() const VPHI_EXCLUDES(mu_);

  /// Control-plane throttle point: when set, the loop queries the
  /// predicate before each posted batch and advances its actor by the
  /// returned delay first (simulated back-off — the loop thread never
  /// sleeps in real time). service::JobService::throttle_delay bound to
  /// the offending tenant is the intended predicate. Null clears it.
  using ThrottleFn = std::function<sim::Nanos()>;
  void set_throttle(ThrottleFn fn) VPHI_EXCLUDES(mu_);
  /// Cumulative simulated delay the throttle injected (separate from
  /// blocked_time(): throttling is imposed wait, not handler work).
  sim::Nanos throttled_time() const VPHI_EXCLUDES(mu_);

 private:
  void loop_main() VPHI_EXCLUDES(mu_);

  std::string name_;
  sim::Actor loop_actor_;

  mutable sim::Mutex mu_;
  sim::CondVar cv_;
  sim::CondVar idle_cv_;
  std::deque<Handler> pending_ VPHI_GUARDED_BY(mu_);
  bool stopping_ VPHI_GUARDED_BY(mu_) = false;
  bool idle_ VPHI_GUARDED_BY(mu_) = true;
  std::uint64_t handled_ VPHI_GUARDED_BY(mu_) = 0;
  std::uint64_t workers_spawned_ VPHI_GUARDED_BY(mu_) = 0;
  sim::Nanos blocked_time_ VPHI_GUARDED_BY(mu_) = 0;
  ThrottleFn throttle_ VPHI_GUARDED_BY(mu_);
  sim::Nanos throttled_time_ VPHI_GUARDED_BY(mu_) = 0;
  struct Worker {
    std::thread thread;
    std::atomic<bool> done{false};  ///< set as the worker's last act
  };
  /// Nodes stay put while their thread runs (it holds `done` by address).
  std::list<Worker> workers_ VPHI_GUARDED_BY(mu_);
  std::thread loop_thread_;
};

}  // namespace vphi::hv
