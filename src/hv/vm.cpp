#include "hv/vm.hpp"

#include <algorithm>

namespace vphi::hv {

Vm::Vm(const VmConfig& config, const sim::CostModel& model)
    : config_(config),
      model_(&model),
      ram_(config.ram_bytes),
      kernel_(ram_, model),
      status_(virtio::VIRTIO_F_VERSION_1 | virtio::VIRTIO_F_EVENT_IDX |
              virtio::VPHI_F_SCIF | virtio::VPHI_F_MMAP_PFN |
              virtio::VPHI_F_SYSFS_INFO),
      qemu_(config.name),
      mmu_(kernel_.vmas(), model, "vm=" + config.name),
      irq_count_("vphi.hv.irqs_injected", "vm=" + config.name) {
  const std::uint16_t queues = std::max<std::uint16_t>(1, config.num_queues);
  vqs_.reserve(queues);
  for (std::uint16_t q = 0; q < queues; ++q) {
    // Queue 0 keeps the plain per-VM label so single-queue consumers
    // (vphi-top's per-VM table) keep resolving "vm=<name>" exactly; the
    // extra queues of a multi-queue VM carry a ",q=<i>" suffix.
    const std::string label =
        q == 0 ? "vm=" + config.name
               : "vm=" + config.name + ",q=" + std::to_string(q);
    vqs_.push_back(std::make_unique<virtio::Virtqueue>(
        config.ring_size,
        [this](std::uint64_t gpa, std::uint32_t len) {
          return ram_.translate(gpa, len);
        },
        label));
  }
  irq_handlers_.resize(queues);
}

Vm::~Vm() { shutdown(); }

void Vm::inject_irq(std::uint16_t queue, sim::Nanos backend_now) {
  IrqHandler handler;
  {
    sim::MutexLock lock(irq_mu_);
    if (queue < irq_handlers_.size()) handler = irq_handlers_[queue];
  }
  irq_count_.inc();
  if (handler) handler(backend_now + model_->irq_inject_ns);
}

void Vm::set_irq_handler(std::uint16_t queue, IrqHandler handler) {
  sim::MutexLock lock(irq_mu_);
  if (queue < irq_handlers_.size()) irq_handlers_[queue] = std::move(handler);
}

void Vm::shutdown() {
  for (auto& vq : vqs_) vq->shutdown();
  kernel_.waitq().shutdown();
}

}  // namespace vphi::hv
