// The QEMU event loop.
//
// QEMU is event-driven: device emulation handlers run serialized on the main
// loop, and while one runs, the whole VM's other I/O stalls — cheap and
// race-free for short handlers, costly for long ones. For those, QEMU
// offloads to a worker thread and returns to the loop. Sec. III ("Blocking
// vs non-blocking mode") builds vPHI's per-opcode policy on exactly this
// tradeoff; this class provides both modes and the accounting (time the
// loop was held) the ablation bench A2 reports. Like QEMU's thread pool,
// threaded mode parks idle workers and reuses them for later handoffs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

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

  /// Run `handler` on a pool worker thread (QEMU's threaded mode): the
  /// loop keeps spinning. The handoff wakes a parked worker, and starts a
  /// new thread only when none is parked, so a handler blocked in
  /// scif_accept or scif_poll never delays another handoff. Each handler
  /// runs on a fresh actor that starts at `start_ts` (time the handoff
  /// became visible), so a reused thread costs no simulated time.
  void run_in_worker(Handler handler, sim::Nanos start_ts) VPHI_EXCLUDES(mu_);

  /// Block until every posted handler so far has run.
  void drain() VPHI_EXCLUDES(mu_);
  /// Run every handler handed off before this call, then stop and join
  /// the pool's threads. A later run_in_worker() starts a fresh pool.
  void join_workers() VPHI_EXCLUDES(mu_);

  /// Stop the loop thread; pending handlers still run first.
  void stop() VPHI_EXCLUDES(mu_);

  /// Cumulative simulated time handlers held the loop (the "VM frozen"
  /// account of the paper's blocking-mode discussion).
  sim::Nanos blocked_time() const VPHI_EXCLUDES(mu_);
  std::uint64_t handled() const VPHI_EXCLUDES(mu_);
  /// Worker threads actually started (parked-worker reuse is not counted).
  std::uint64_t workers_spawned() const VPHI_EXCLUDES(mu_);

 private:
  struct Handoff {
    Handler handler;
    sim::Nanos start_ts = 0;
  };

  void loop_main() VPHI_EXCLUDES(mu_);
  /// Pool thread body: run queued handoffs, park when there are none, and
  /// exit once join_workers() has retired `generation` and the queue is
  /// empty.
  void worker_main(std::uint64_t generation) VPHI_EXCLUDES(mu_);

  std::string name_;
  const std::string worker_name_;  ///< every worker actor's name
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
  sim::CondVar pool_cv_;  ///< parked workers wait here
  std::deque<Handoff> handoffs_ VPHI_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ VPHI_GUARDED_BY(mu_);
  /// Workers waiting on pool_cv_. Each queued handoff needs one of its
  /// own: fewer, and the handoff would wait behind a running handler.
  std::size_t parked_ VPHI_GUARDED_BY(mu_) = 0;
  /// Bumped by join_workers(); workers of an older generation exit once
  /// the queue is empty.
  std::uint64_t generation_ VPHI_GUARDED_BY(mu_) = 0;
  std::thread loop_thread_;
};

}  // namespace vphi::hv
