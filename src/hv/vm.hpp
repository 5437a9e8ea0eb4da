// A QEMU-KVM virtual machine container.
//
// Bundles what one VM contributes to the vPHI picture: guest RAM (registered
// with the backend for zero-copy access), the guest kernel services, the
// virtio queue pair shared between the vPHI frontend (in the guest) and the
// vPHI backend (a QEMU device in host user space), the QEMU event loop the
// backend runs on, the KVM MMU for the VM_PFNPHI mmap path, and the virtual
// interrupt wire.
//
// Each Vm is one QEMU process — which is precisely how vPHI gets sharing:
// the host SCIF driver just sees multiple processes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hv/event_loop.hpp"
#include "hv/guest_kernel.hpp"
#include "hv/guest_mem.hpp"
#include "hv/kvm_mmu.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/thread_safety.hpp"
#include "virtio/device.hpp"
#include "virtio/ring.hpp"

namespace vphi::hv {

struct VmConfig {
  std::string name = "vm0";
  std::uint64_t ram_bytes = 256ull << 20;
  std::uint16_t ring_size = 256;
  std::uint32_t vcpus = 1;  ///< the paper evaluates a single-core VM
  /// Number of vPHI virtqueues (multi-queue: one per submitting vCPU,
  /// each with its own doorbell and MSI-X-style interrupt vector).
  std::uint16_t num_queues = 1;
};

class Vm {
 public:
  /// Called when the backend injects a virtual interrupt; receives the
  /// simulated time the interrupt reaches the guest. One handler per
  /// queue, mirroring per-queue MSI-X vectors.
  using IrqHandler = std::function<void(sim::Nanos)>;

  Vm(const VmConfig& config, const sim::CostModel& model);
  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  const std::string& name() const noexcept { return config_.name; }
  const VmConfig& config() const noexcept { return config_; }
  const sim::CostModel& model() const noexcept { return *model_; }

  GuestPhysMem& ram() noexcept { return ram_; }
  GuestKernel& kernel() noexcept { return kernel_; }
  /// Queue 0 — the only queue in the paper's single-queue configuration;
  /// legacy callers and epd-less control ops all ride it.
  virtio::Virtqueue& vq() noexcept { return *vqs_[0]; }
  virtio::Virtqueue& vq(std::uint16_t queue) noexcept { return *vqs_[queue]; }
  std::uint16_t num_queues() const noexcept {
    return static_cast<std::uint16_t>(vqs_.size());
  }
  virtio::DeviceStatus& device_status() noexcept { return status_; }
  EventLoop& qemu() noexcept { return qemu_; }
  kvm::Mmu& mmu() noexcept { return mmu_; }

  /// Frontend side: charge a guest->host notification (MMIO write that VM
  /// exits) and return the time the kick reaches QEMU.
  sim::Nanos kick_cost(sim::Actor& actor) {
    return actor.advance(model_->kick_vmexit_ns);
  }

  /// Backend side: deliver a virtual interrupt on a queue's vector; the
  /// handler observes it at now + injection latency. The one-argument
  /// forms address queue 0.
  void inject_irq(sim::Nanos backend_now) VPHI_EXCLUDES(irq_mu_) {
    inject_irq(0, backend_now);
  }
  void inject_irq(std::uint16_t queue, sim::Nanos backend_now)
      VPHI_EXCLUDES(irq_mu_);
  void set_irq_handler(IrqHandler handler) VPHI_EXCLUDES(irq_mu_) {
    set_irq_handler(0, std::move(handler));
  }
  void set_irq_handler(std::uint16_t queue, IrqHandler handler)
      VPHI_EXCLUDES(irq_mu_);

  /// Tear down the transport (unblocks the backend and any guest waiters).
  void shutdown();

 private:
  VmConfig config_;
  const sim::CostModel* model_;
  GuestPhysMem ram_;
  GuestKernel kernel_;
  // Virtqueue is non-movable (it owns a mutex and registry instruments),
  // so the per-queue set lives behind unique_ptrs.
  std::vector<std::unique_ptr<virtio::Virtqueue>> vqs_;
  virtio::DeviceStatus status_;
  EventLoop qemu_;
  kvm::Mmu mmu_;
  std::vector<IrqHandler> irq_handlers_ VPHI_GUARDED_BY(irq_mu_);
  sim::Mutex irq_mu_;
  sim::metrics::Counter irq_count_;
};

}  // namespace vphi::hv
