#include "tools/testbed.hpp"

namespace vphi::tools {

Testbed::VmStack::VmStack(const std::string& name, const TestbedConfig& config,
                          const sim::CostModel& model, scif::Fabric& fabric) {
  hv::VmConfig vm_config;
  vm_config.name = name;
  vm_config.ram_bytes = config.vm_ram_bytes;
  vm_config.ring_size = config.ring_size;
  vm_config.num_queues = config.num_queues;
  vm_ = std::make_unique<hv::Vm>(vm_config, model);
  frontend_ = std::make_unique<core::FrontendDriver>(*vm_, config.frontend);
  backend_ =
      std::make_unique<core::BackendDevice>(*vm_, fabric, config.backend_policy);
  backend_->start();
  // The guest driver probes once the backend device is live.
  const auto probed = frontend_->probe();
  if (!sim::ok(probed)) {
    backend_->stop();
    vm_.reset();
    return;
  }
  guest_scif_ = std::make_unique<core::GuestScifProvider>(*frontend_);
}

Testbed::VmStack::~VmStack() {
  if (backend_) backend_->stop();
  if (vm_) vm_->shutdown();
  // Waits for every guest caller the shutdown woke to leave the driver and
  // the provider (each provider call holds a FrontendDriver::ActiveCall);
  // only then may the provider go.
  frontend_.reset();
  guest_scif_.reset();
}

sim::Expected<void*> Testbed::VmStack::alloc_user_buffer(std::size_t len) {
  // Guest user allocations are not kmalloc-capped (a user mmap stand-in).
  auto& ram = vm_->ram();
  auto gpa = ram.ualloc(len);
  if (!gpa) return gpa.status();
  return ram.translate(*gpa, len);
}

sim::Status Testbed::VmStack::free_user_buffer(void* ptr) {
  auto& ram = vm_->ram();
  auto gpa = ram.gpa_of(ptr);
  if (!gpa) return gpa.status();
  return ram.kfree(*gpa);
}

Testbed::Testbed(const TestbedConfig& config)
    : config_(config), model_(config.model) {
  card_ = std::make_unique<mic::Card>(
      mic::CardConfig{.index = 0,
                      .memory_backing_bytes = config.card_backing_bytes},
      model_);
  card_->boot();
  fabric_ = std::make_unique<scif::Fabric>(model_);
  card_node_ = fabric_->attach_card(*card_);
  host_provider_ = std::make_unique<scif::HostProvider>(*fabric_,
                                                        scif::kHostNode);
  card_provider_ = std::make_unique<scif::HostProvider>(*fabric_, card_node_);
  if (config.start_coi_daemon) {
    daemon_ = std::make_unique<coi::Daemon>(*fabric_, *card_, card_node_);
    if (config.job_service != nullptr) {
      daemon_->set_job_service(config.job_service);
    }
    daemon_->start();
  }
  for (std::uint32_t i = 0; i < config.num_vms; ++i) add_vm();
}

Testbed::~Testbed() {
  // VMs first (their backends hold provider references into the fabric),
  // then the card-side daemon.
  vms_.clear();
  daemon_.reset();
}

Testbed::VmStack& Testbed::add_vm() {
  const std::string name = "vm" + std::to_string(vms_.size());
  vms_.push_back(std::make_unique<VmStack>(name, config_, model_, *fabric_));
  return *vms_.back();
}

}  // namespace vphi::tools
