// Guest kernel services the vPHI frontend driver depends on.
//
// * WaitQueue — the paper's waiting scheme, and the villain of its latency
//   breakdown: a requester sleeps after kicking the ring; the virtual
//   interrupt handler wakes *all* sleepers, each checks the shared ring, the
//   owner proceeds, the rest re-sleep. Sec. IV-B attributes 93% of the
//   375 us virtualization overhead to this sleep/wake path; the CostModel's
//   guest_wakeup_scheme_ns (plus a per-extra-sleeper tax) reproduces it.
// * page pinning — scif_register in the guest must pin user pages so RMA
//   stays correct across swapping (Sec. III, "Guest memory registration").
// * vma table — scif_mmap creates vmas tagged VM_PFNPHI carrying the device
//   frame, the small host-kernel modification vPHI needs.
// * copy_{from,to}_user timing — the only real copies on the vPHI data path.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hv/guest_mem.hpp"
#include "sim/actor.hpp"
#include "sim/cost_model.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"

namespace vphi::hv {

/// The interrupt-driven wait queue of the vPHI frontend.
class WaitQueue {
 public:
  explicit WaitQueue(const sim::CostModel& model) : model_(&model) {}

  /// Register as a sleeper; returns the ticket the ISR completes later.
  /// Must be called before the request is kicked (no lost-wakeup window).
  /// `owner` is the submitting vCPU: its own pipelined tickets are one
  /// sleeper, not several. A ticket with no owner is a sleeper of its own.
  std::uint64_t prepare(const sim::Actor* owner = nullptr)
      VPHI_EXCLUDES(mu_);

  /// Sleep until complete(ticket) arrives. Applies the waiting-scheme cost
  /// to `actor`: resume time is irq visibility + ISR entry + wakeup scheme
  /// + a tax for every other sleeper (other owner) our interrupt woke
  /// spuriously
  /// + a tax for every other interrupt that woke us in vain between our
  /// sleep and our own interrupt in simulated time.
  /// Returns kShutDown if the queue was torn down first. There is no
  /// timeout: a waiter whose request can never complete (its chain stranded
  /// on the ring) must not sleep here at all, and the frontend checks the
  /// ring for that before it calls wait().
  sim::Status wait(std::uint64_t ticket, sim::Actor& actor)
      VPHI_EXCLUDES(mu_);

  /// ISR side: the response for `ticket` became visible at `irq_ts`.
  /// Completions for unknown (cancelled / timed-out) tickets are dropped.
  /// A second call for a ticket not yet waited on re-stamps it no earlier
  /// than the first, and wakes nobody.
  void complete(std::uint64_t ticket, sim::Nanos irq_ts) VPHI_EXCLUDES(mu_);

  /// Deregister a prepared ticket that will never be waited on (the request
  /// was never posted, or was lost in the transport). A late complete() for
  /// it is dropped.
  void cancel(std::uint64_t ticket) VPHI_EXCLUDES(mu_);

  void shutdown() VPHI_EXCLUDES(mu_);

  std::size_t sleepers() const VPHI_EXCLUDES(mu_);
  /// Threads currently blocked inside wait() (for deterministic tests).
  std::size_t blocked_waiters() const VPHI_EXCLUDES(mu_);
  /// Total spurious wakeups suffered by all sleepers (wake-all semantics).
  std::uint64_t spurious_wakeups() const VPHI_EXCLUDES(mu_);

 private:
  struct Completion {
    sim::Nanos irq_ts = 0;
    /// Other sleepers our interrupt woke: distinct owners other than ours,
    /// plus each other ticket that has no owner.
    std::size_t others_at_irq = 0;
  };

  /// The `others_at_irq` of a completion for `ticket`, now.
  std::size_t other_sleepers_locked(std::uint64_t ticket) const
      VPHI_REQUIRES(mu_);

  const sim::CostModel* model_;
  mutable sim::Mutex mu_;
  sim::CondVar cv_;
  std::uint64_t next_ticket_ VPHI_GUARDED_BY(mu_) = 1;
  /// Prepared tickets not yet waited on, with their owners.
  std::map<std::uint64_t, const sim::Actor*> sleeping_ VPHI_GUARDED_BY(mu_);
  std::map<std::uint64_t, Completion> completed_ VPHI_GUARDED_BY(mu_);
  std::uint64_t spurious_ VPHI_GUARDED_BY(mu_) = 0;
  std::uint64_t wake_generation_ VPHI_GUARDED_BY(mu_) = 0;
  /// Interrupt time of the completion behind the newest wake generation.
  sim::Nanos last_irq_ts_ VPHI_GUARDED_BY(mu_) = 0;
  std::size_t blocked_ VPHI_GUARDED_BY(mu_) = 0;
  bool shutdown_ VPHI_GUARDED_BY(mu_) = false;
};

/// vm_area_struct flags we care about. VM_PFNPHI is the new label vPHI
/// introduces for scif_mmap'ed device regions.
inline constexpr std::uint32_t VM_PFNPHI = 0x1;

struct Vma {
  std::uint64_t gva_start = 0;
  std::uint64_t len = 0;
  std::uint32_t flags = 0;
  /// Host pointer to the device frame backing this vma (the "stored
  /// physical frame number" of the paper's kvm modification).
  std::byte* device_base = nullptr;
};

class VmaTable {
 public:
  sim::Status add(const Vma& vma) VPHI_EXCLUDES(mu_);
  sim::Status remove(std::uint64_t gva_start) VPHI_EXCLUDES(mu_);
  /// The vma containing `gva`, or nullptr.
  const Vma* find(std::uint64_t gva) const VPHI_EXCLUDES(mu_);
  std::size_t count() const VPHI_EXCLUDES(mu_);

 private:
  mutable sim::Mutex mu_;
  std::map<std::uint64_t, Vma> vmas_ VPHI_GUARDED_BY(mu_);  // by gva_start
};

class GuestKernel {
 public:
  GuestKernel(GuestPhysMem& ram, const sim::CostModel& model)
      : ram_(&ram), model_(&model), waitq_(model) {}

  GuestPhysMem& ram() noexcept { return *ram_; }
  WaitQueue& waitq() noexcept { return waitq_; }
  VmaTable& vmas() noexcept { return vmas_; }
  const sim::CostModel& model() const noexcept { return *model_; }

  /// Pin `len` bytes of guest user memory at gpa (get_user_pages): charges
  /// per-page cost and records the pin so unregister can validate.
  sim::Status pin_pages(sim::Actor& actor, std::uint64_t gpa,
                        std::uint64_t len) VPHI_EXCLUDES(pin_mu_);
  sim::Status unpin_pages(std::uint64_t gpa, std::uint64_t len)
      VPHI_EXCLUDES(pin_mu_);
  bool is_pinned(std::uint64_t gpa, std::uint64_t len) const
      VPHI_EXCLUDES(pin_mu_);

 private:
  GuestPhysMem* ram_;
  const sim::CostModel* model_;
  WaitQueue waitq_;
  VmaTable vmas_;
  mutable sim::Mutex pin_mu_;
  std::map<std::uint64_t, std::uint64_t> pinned_
      VPHI_GUARDED_BY(pin_mu_);  // gpa -> len
};

}  // namespace vphi::hv
