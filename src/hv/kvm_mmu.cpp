#include "hv/kvm_mmu.hpp"

namespace vphi::hv::kvm {

sim::Expected<std::byte*> Mmu::access(sim::Actor& actor, std::uint64_t gva,
                                      std::uint64_t len) {
  if (len == 0) return sim::Status::kInvalidArgument;
  const Vma* vma = vmas_->find(gva);
  if (vma == nullptr || gva + len > vma->gva_start + vma->len) {
    // Without the vPHI vma tag, kvm would misinterpret the faulting address
    // as a host reference — the failure mode the paper's patch prevents.
    return sim::Status::kBadAddress;
  }
  if ((vma->flags & VM_PFNPHI) == 0) return sim::Status::kAccessDenied;

  // Fault in each untouched page exactly once.
  const std::uint64_t first_page = gva / kPage;
  const std::uint64_t last_page = (gva + len - 1) / kPage;
  std::uint64_t new_faults = 0;
  {
    sim::MutexLock lock(mu_);
    for (std::uint64_t p = first_page; p <= last_page; ++p) {
      if (shadow_.insert(p).second) ++new_faults;
    }
  }
  faults_.inc(new_faults);
  actor.advance(new_faults * model_->ept_fault_ns);
  return vma->device_base + (gva - vma->gva_start);
}

void Mmu::invalidate(std::uint64_t gva_start, std::uint64_t len) {
  sim::MutexLock lock(mu_);
  const std::uint64_t first_page = gva_start / kPage;
  const std::uint64_t last_page =
      len == 0 ? first_page : (gva_start + len - 1) / kPage;
  for (std::uint64_t p = first_page; p <= last_page; ++p) shadow_.erase(p);
}

}  // namespace vphi::hv::kvm
