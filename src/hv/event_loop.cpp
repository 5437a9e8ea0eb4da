#include "hv/event_loop.hpp"

namespace vphi::hv {

EventLoop::EventLoop(std::string name)
    : name_(std::move(name)),
      worker_name_(name_ + "-worker"),
      loop_actor_(name_ + "-loop"),
      loop_thread_([this] { loop_main(); }) {}

EventLoop::~EventLoop() {
  stop();
  join_workers();
}

void EventLoop::loop_main() {
  sim::ActorScope scope(loop_actor_);
  std::deque<Handler> batch;
  for (;;) {
    {
      sim::MutexLock lock(mu_);
      while (pending_.empty() && !stopping_) cv_.wait(mu_);
      if (pending_.empty() && stopping_) return;
      // Take the whole burst in one swap: one lock round-trip per batch
      // instead of two per handler, which is what keeps the loop off the
      // profile when a fleet-scale run posts doorbells in storms.
      batch.swap(pending_);
      idle_ = false;
    }

    // Run the batch with mu_ dropped: post() from inside a handler must
    // not deadlock, and the "loop held" account measures handler time only.
    const sim::Nanos before = loop_actor_.now();
    for (Handler& handler : batch) handler(loop_actor_);
    const sim::Nanos held = loop_actor_.now() - before;

    {
      sim::MutexLock lock(mu_);
      blocked_time_ += held;
      handled_ += batch.size();
      idle_ = pending_.empty();
      if (idle_) idle_cv_.notify_all();
    }
    batch.clear();
  }
}

void EventLoop::post(Handler handler) {
  {
    sim::MutexLock lock(mu_);
    pending_.push_back(std::move(handler));
    idle_ = false;
  }
  cv_.notify_one();
}

void EventLoop::run_in_worker(Handler handler, sim::Nanos start_ts) {
  std::uint64_t generation = 0;
  {
    sim::MutexLock lock(mu_);
    handoffs_.push_back(Handoff{std::move(handler), start_ts});
    if (handoffs_.size() <= parked_) {
      pool_cv_.notify_one();
      return;
    }
    ++workers_spawned_;
    generation = generation_;
  }
  // Start the thread with mu_ dropped: a burst of handoffs otherwise holds
  // the parked workers off the queue for every pthread_create and grows
  // the pool by hundreds of threads.
  std::thread worker([this, generation] { worker_main(generation); });
  sim::MutexLock lock(mu_);
  workers_.push_back(std::move(worker));
}

void EventLoop::worker_main(std::uint64_t generation) {
  for (;;) {
    Handoff next;
    {
      sim::MutexLock lock(mu_);
      while (handoffs_.empty() && generation == generation_) {
        ++parked_;
        pool_cv_.wait(mu_);
        --parked_;
      }
      if (handoffs_.empty()) return;  // retired by join_workers()
      next = std::move(handoffs_.front());
      handoffs_.pop_front();
    }
    sim::Actor worker_actor{worker_name_, next.start_ts};
    sim::ActorScope scope(worker_actor);
    next.handler(worker_actor);
  }
}

void EventLoop::drain() {
  sim::MutexLock lock(mu_);
  while (!(idle_ && pending_.empty())) idle_cv_.wait(mu_);
}

void EventLoop::join_workers() {
  std::vector<std::thread> retired;
  {
    sim::MutexLock lock(mu_);
    ++generation_;
    retired.swap(workers_);
  }
  pool_cv_.notify_all();
  for (std::thread& t : retired) t.join();
}

void EventLoop::stop() {
  {
    sim::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
}

sim::Nanos EventLoop::blocked_time() const {
  sim::MutexLock lock(mu_);
  return blocked_time_;
}

std::uint64_t EventLoop::handled() const {
  sim::MutexLock lock(mu_);
  return handled_;
}

std::uint64_t EventLoop::workers_spawned() const {
  sim::MutexLock lock(mu_);
  return workers_spawned_;
}

}  // namespace vphi::hv
