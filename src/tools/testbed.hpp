// Testbed builder: assembles the paper's experimental setup in one object —
// a host (Xeon E5-2695v2-like timing), one Xeon Phi 3120P card on a PCIe
// link, the SCIF fabric, and N QEMU-KVM VMs each carrying the full vPHI
// split-driver stack (frontend + backend + guest SCIF provider).
//
// Everything the benches and examples do starts from here:
//
//   tools::Testbed bed{{}};
//   auto& host = bed.host_provider();     // native path (baseline)
//   auto& guest = bed.vm(0).guest_scif(); // virtualized path (vPHI)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coi/daemon.hpp"
#include "hv/vm.hpp"
#include "mic/card.hpp"
#include "scif/fabric.hpp"
#include "scif/host_provider.hpp"
#include "sim/cost_model.hpp"
#include "vphi/backend.hpp"
#include "vphi/frontend.hpp"
#include "vphi/guest_scif.hpp"

namespace vphi::tools {

struct TestbedConfig {
  sim::CostModel model = sim::CostModel::paper();
  std::uint64_t card_backing_bytes = 512ull << 20;
  std::uint32_t num_vms = 1;
  std::uint64_t vm_ram_bytes = 256ull << 20;
  std::uint16_t ring_size = 256;
  /// vPHI virtqueues per VM (multi-queue: one per submitting vCPU).
  std::uint16_t num_queues = 1;
  core::FrontendDriver::Config frontend{};
  core::BackendPolicy backend_policy{};
  /// Start coi_daemon on the card (needed for COI / micnativeloadex).
  bool start_coi_daemon = true;
  /// Tenant control plane installed into the daemon before it starts
  /// (admission on kCreateProcess, throttle on kRunFunction). Must outlive
  /// the testbed. Null = no admission control.
  service::JobService* job_service = nullptr;
};

class Testbed {
 public:
  /// One VM's vPHI stack.
  class VmStack {
   public:
    VmStack(const std::string& name, const TestbedConfig& config,
            const sim::CostModel& model, scif::Fabric& fabric);
    ~VmStack();

    hv::Vm& vm() noexcept { return *vm_; }
    core::FrontendDriver& frontend() noexcept { return *frontend_; }
    core::GuestScifProvider& guest_scif() noexcept { return *guest_scif_; }

    /// Allocate a guest user buffer (from guest RAM, no kmalloc cap) and
    /// return its host-visible pointer. Freed with free_user_buffer.
    sim::Expected<void*> alloc_user_buffer(std::size_t len);
    sim::Status free_user_buffer(void* ptr);

   private:
    std::unique_ptr<hv::Vm> vm_;
    std::unique_ptr<core::FrontendDriver> frontend_;
    std::unique_ptr<core::BackendDevice> backend_;
    std::unique_ptr<core::GuestScifProvider> guest_scif_;
  };

  explicit Testbed(const TestbedConfig& config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  const sim::CostModel& model() const noexcept { return model_; }
  mic::Card& card() noexcept { return *card_; }
  scif::Fabric& fabric() noexcept { return *fabric_; }
  scif::NodeId card_node() const noexcept { return card_node_; }

  /// A host process identity (the native baseline path).
  scif::HostProvider& host_provider() noexcept { return *host_provider_; }
  /// A card (uOS) process identity — servers/daemons on the coprocessor.
  scif::HostProvider& card_provider() noexcept { return *card_provider_; }
  /// The card's coi_daemon (null when start_coi_daemon is false).
  coi::Daemon* coi_daemon() noexcept { return daemon_.get(); }

  std::size_t vm_count() const noexcept { return vms_.size(); }
  VmStack& vm(std::size_t i) { return *vms_.at(i); }

  /// Attach one more VM to the testbed (sharing experiments).
  VmStack& add_vm();

 private:
  TestbedConfig config_;
  sim::CostModel model_;  ///< owned copy; everything points here
  std::unique_ptr<mic::Card> card_;
  std::unique_ptr<scif::Fabric> fabric_;
  scif::NodeId card_node_ = 0;
  std::unique_ptr<scif::HostProvider> host_provider_;
  std::unique_ptr<scif::HostProvider> card_provider_;
  std::unique_ptr<coi::Daemon> daemon_;
  std::vector<std::unique_ptr<VmStack>> vms_;
};

}  // namespace vphi::tools
