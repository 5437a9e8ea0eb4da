#include "hv/guest_mem.hpp"

#include "sim/fault.hpp"
#include "sim/log.hpp"

namespace vphi::hv {

void* GuestPhysMem::translate(std::uint64_t gpa, std::uint64_t len) noexcept {
  if (gpa >= ram_bytes() || len > ram_bytes() - gpa) return nullptr;
  return ram_.at(gpa);
}

sim::Expected<std::uint64_t> GuestPhysMem::kmalloc(std::uint64_t len) {
  sim::Expected<std::uint64_t> gpa = sim::Status::kNoMemory;  // over the cap
  if (sim::fault_injector().should_fire(sim::FaultSite::kKmallocNoMem)) {
    VPHI_LOG(kWarn, "guest-mem") << "kmalloc(" << len << ") -> injected ENOMEM";
  } else if (len <= kKmallocMaxSize) {
    gpa = ualloc(len);
  }
  if (!gpa) kmalloc_failures_.fetch_add(1, std::memory_order_relaxed);
  return gpa;
}

}  // namespace vphi::hv
