// The KVM MMU piece of vPHI's mmap path.
//
// scif_mmap inside a guest needs a two-level mapping: guest-virtual ->
// guest-physical -> host-physical (Xeon Phi device memory). A guest load to
// such an address faults into the kvm module, which — with the paper's
// <10 LOC modification — recognizes the VM_PFNPHI vma tag and resolves the
// fault to the stored device frame instead of misreading the address as a
// host pointer. We model exactly that: first touch of each page pays the
// EPT-fault cost; later touches hit the shadow mapping and only pay MMIO.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "hv/guest_kernel.hpp"
#include "sim/actor.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"

namespace vphi::hv::kvm {

class Mmu {
 public:
  /// `label` tags the fault counter ("vm=<name>").
  Mmu(const VmaTable& vmas, const sim::CostModel& model, std::string label)
      : vmas_(&vmas), model_(&model), faults_("vphi.hv.ept_faults", std::move(label)) {}

  /// Resolve a guest-virtual access at `gva` for `len` bytes. Returns the
  /// host pointer into device memory. Faults (once per page) cost
  /// ept_fault_ns; every access costs MMIO per cacheline via the caller.
  sim::Expected<std::byte*> access(sim::Actor& actor, std::uint64_t gva,
                                   std::uint64_t len) VPHI_EXCLUDES(mu_);

  /// Drop shadow entries for a torn-down vma (munmap).
  void invalidate(std::uint64_t gva_start, std::uint64_t len)
      VPHI_EXCLUDES(mu_);

 private:
  static constexpr std::uint64_t kPage = 4'096;

  const VmaTable* vmas_;
  const sim::CostModel* model_;
  sim::Mutex mu_;
  /// gva pages with established mappings.
  std::set<std::uint64_t> shadow_ VPHI_GUARDED_BY(mu_);
  /// Pages faulted in, one per first touch (again after an invalidate).
  sim::metrics::Counter faults_;
};

}  // namespace vphi::hv::kvm
