// Guest physical memory.
//
// One anonymous host mapping backs a VM's RAM (sim::PageArena), exactly how
// QEMU mmaps guest memory and registers it with KVM: pages materialise,
// zeroed, when first touched. Guest-physical addresses are offsets into it;
// the backend's zero-copy access to ring buffers is the translation
// gpa -> host pointer this class provides.
//
// The arena's allocator models kmalloc on top: Linux caps physically
// contiguous allocations at KMALLOC_MAX_SIZE (4 MiB on x86_64), the limit
// that forces the vPHI frontend to chunk large transfers (Sec. III,
// "Implementation details").
#pragma once

#include <cstdint>

#include "sim/page_arena.hpp"
#include "sim/status.hpp"

namespace vphi::hv {

/// KMALLOC_MAX_SIZE on x86_64.
inline constexpr std::uint64_t kKmallocMaxSize = 4ull << 20;

class GuestPhysMem {
 public:
  static constexpr std::uint64_t kPageSize = sim::PageArena::kPageSize;

  explicit GuestPhysMem(std::uint64_t ram_bytes) : ram_(ram_bytes) {}

  GuestPhysMem(const GuestPhysMem&) = delete;
  GuestPhysMem& operator=(const GuestPhysMem&) = delete;

  std::uint64_t ram_bytes() const noexcept { return ram_.capacity(); }

  /// gpa -> host pointer; nullptr when [gpa, gpa+len) exceeds guest RAM.
  void* translate(std::uint64_t gpa, std::uint64_t len) noexcept;
  /// host pointer -> gpa; kBadAddress if outside guest RAM.
  sim::Expected<std::uint64_t> gpa_of(const void* host_ptr) const noexcept {
    return ram_.offset_of(host_ptr);
  }

  /// kmalloc: physically contiguous allocation, capped at KMALLOC_MAX_SIZE.
  /// Returns the gpa of the block.
  sim::Expected<std::uint64_t> kmalloc(std::uint64_t len);
  sim::Status kfree(std::uint64_t gpa) { return ram_.free(gpa); }

  /// User-space allocation (mmap stand-in): same arena, no kmalloc cap.
  /// Guest user buffers for SCIF benchmarks come from here. Freed with
  /// kfree.
  sim::Expected<std::uint64_t> ualloc(std::uint64_t len) {
    return ram_.allocate(len);
  }

  std::uint64_t allocation_count() const { return ram_.allocation_count(); }

 private:
  sim::PageArena ram_;  // offset == gpa
};

}  // namespace vphi::hv
