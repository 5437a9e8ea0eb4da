#include "hv/guest_kernel.hpp"

#include <algorithm>
#include <cstring>

namespace vphi::hv {

// --- WaitQueue ---------------------------------------------------------------

std::uint64_t WaitQueue::prepare(const sim::Actor* owner) {
  sim::MutexLock lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  sleeping_.emplace(ticket, owner);
  return ticket;
}

sim::Status WaitQueue::wait(std::uint64_t ticket, sim::Actor& actor) {
  Completion c;
  // Interrupt times of the other requests' completions that woke us in
  // vain. Only those inside our own sleep in simulated time are charged:
  // host wake order can deliver one from before we slept or after our own
  // interrupt.
  std::vector<sim::Nanos> spurious_irqs;
  const sim::Nanos slept_at = actor.now();
  {
    sim::MutexLock lock(mu_);
    std::uint64_t seen_generation = wake_generation_;
    for (;;) {
      if (shutdown_) {
        sleeping_.erase(ticket);
        return sim::Status::kShutDown;
      }
      if (auto it = completed_.find(ticket); it != completed_.end()) {
        c = it->second;
        completed_.erase(it);
        sleeping_.erase(ticket);
        break;
      }
      // Sleep until any wake event; count generations we woke for in vain.
      ++blocked_;
      while (!shutdown_ && wake_generation_ == seen_generation &&
             completed_.count(ticket) == 0) {
        cv_.wait(mu_);
      }
      --blocked_;
      if (wake_generation_ != seen_generation &&
          completed_.count(ticket) == 0 && !shutdown_) {
        spurious_irqs.push_back(last_irq_ts_);
        ++spurious_;
      }
      seen_generation = wake_generation_;
    }
  }
  // The waiting scheme, charged with mu_ dropped: ISR entry + wake_up_all +
  // scheduler-in of this waiter, plus the ring-check churn of every other
  // sleeper our interrupt woke, plus our own spurious wakeups from other
  // requests' interrupts while we slept.
  const auto& m = *model_;
  const auto my_spurious = static_cast<std::uint64_t>(
      std::count_if(spurious_irqs.begin(), spurious_irqs.end(),
                    [&](sim::Nanos ts) {
                      return ts >= slept_at && ts <= c.irq_ts;
                    }));
  actor.sync_to(c.irq_ts);
  actor.advance(m.guest_irq_handler_ns + m.guest_wakeup_scheme_ns +
                c.others_at_irq * m.wakeup_per_extra_sleeper_ns +
                my_spurious * m.wakeup_per_extra_sleeper_ns);
  return sim::Status::kOk;
}

void WaitQueue::complete(std::uint64_t ticket, sim::Nanos irq_ts) {
  {
    sim::MutexLock lock(mu_);
    // A cancelled or never-prepared ticket is not in sleeping_: drop the
    // completion instead of parking it in completed_ forever.
    if (sleeping_.count(ticket) == 0) return;
    auto [it, fresh] = completed_.try_emplace(
        ticket, Completion{irq_ts, other_sleepers_locked(ticket)});
    if (!fresh) {
      // A re-stamp before the waiter sleeps: nobody new to wake.
      it->second.irq_ts = std::max(it->second.irq_ts, irq_ts);
      return;
    }
    last_irq_ts_ = irq_ts;
    ++wake_generation_;
  }
  cv_.notify_all();  // wake_up_all: every sleeper checks the ring
}

std::size_t WaitQueue::other_sleepers_locked(std::uint64_t ticket) const {
  const sim::Actor* own = sleeping_.at(ticket);
  std::size_t n = 0;
  for (auto it = sleeping_.begin(); it != sleeping_.end(); ++it) {
    const sim::Actor* o = it->second;
    if (it->first == ticket) continue;
    if (o == nullptr) {
      ++n;  // an ownerless ticket is a sleeper of its own
      continue;
    }
    // Another owner counts once, at its first ticket. A queue holds a few
    // sleepers at most, so the rescan is cheap and allocates nothing.
    const auto same = [o](const auto& e) { return e.second == o; };
    if (o != own && std::none_of(sleeping_.begin(), it, same)) ++n;
  }
  return n;
}

void WaitQueue::cancel(std::uint64_t ticket) {
  sim::MutexLock lock(mu_);
  sleeping_.erase(ticket);
  completed_.erase(ticket);
}

void WaitQueue::shutdown() {
  {
    sim::MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::size_t WaitQueue::sleepers() const {
  sim::MutexLock lock(mu_);
  return sleeping_.size();
}

std::size_t WaitQueue::blocked_waiters() const {
  sim::MutexLock lock(mu_);
  return blocked_;
}

std::uint64_t WaitQueue::spurious_wakeups() const {
  sim::MutexLock lock(mu_);
  return spurious_;
}

// --- VmaTable ---------------------------------------------------------------

sim::Status VmaTable::add(const Vma& vma) {
  if (vma.len == 0) return sim::Status::kInvalidArgument;
  sim::MutexLock lock(mu_);
  const std::uint64_t end = vma.gva_start + vma.len;
  auto it = vmas_.lower_bound(vma.gva_start);
  if (it != vmas_.end() && it->first < end) return sim::Status::kAlreadyExists;
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.gva_start + prev->second.len > vma.gva_start) {
      return sim::Status::kAlreadyExists;
    }
  }
  vmas_[vma.gva_start] = vma;
  return sim::Status::kOk;
}

sim::Status VmaTable::remove(std::uint64_t gva_start) {
  sim::MutexLock lock(mu_);
  return vmas_.erase(gva_start) > 0 ? sim::Status::kOk
                                    : sim::Status::kNoSuchEntry;
}

const Vma* VmaTable::find(std::uint64_t gva) const {
  sim::MutexLock lock(mu_);
  auto it = vmas_.upper_bound(gva);
  if (it == vmas_.begin()) return nullptr;
  --it;
  const Vma& v = it->second;
  return gva < v.gva_start + v.len ? &v : nullptr;
}

std::size_t VmaTable::count() const {
  sim::MutexLock lock(mu_);
  return vmas_.size();
}

// --- GuestKernel ---------------------------------------------------------------

sim::Status GuestKernel::pin_pages(sim::Actor& actor, std::uint64_t gpa,
                                   std::uint64_t len) {
  if (len == 0) return sim::Status::kInvalidArgument;
  if (ram_->translate(gpa, len) == nullptr) return sim::Status::kBadAddress;
  const std::uint64_t pages =
      (len + GuestPhysMem::kPageSize - 1) / GuestPhysMem::kPageSize;
  actor.advance(pages * model_->pin_per_page_ns);
  sim::MutexLock lock(pin_mu_);
  pinned_[gpa] = std::max(pinned_[gpa], len);
  return sim::Status::kOk;
}

sim::Status GuestKernel::unpin_pages(std::uint64_t gpa, std::uint64_t len) {
  sim::MutexLock lock(pin_mu_);
  auto it = pinned_.find(gpa);
  if (it == pinned_.end() || it->second != len) {
    return sim::Status::kInvalidArgument;
  }
  pinned_.erase(it);
  return sim::Status::kOk;
}

bool GuestKernel::is_pinned(std::uint64_t gpa, std::uint64_t len) const {
  sim::MutexLock lock(pin_mu_);
  auto it = pinned_.upper_bound(gpa);
  if (it == pinned_.begin()) return false;
  --it;
  return gpa >= it->first && gpa + len <= it->first + it->second;
}

void GuestKernel::copy_from_user(sim::Actor& actor, void* dst, const void* src,
                                 std::uint64_t len) {
  actor.advance(model_->copy_setup_ns +
                sim::transfer_time(len, model_->guest_memcpy_Bps));
  if (len > 0) std::memcpy(dst, src, len);
}

}  // namespace vphi::hv
