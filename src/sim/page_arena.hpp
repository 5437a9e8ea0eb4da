// Page arena: one private anonymous mapping with a first-fit allocator on
// top. It backs both the card's GDDR (mic::DeviceMemory) and a VM's guest RAM
// (hv::GuestPhysMem). The kernel supplies a zeroed page the first time one is
// touched, so the arena reads as all zero while a testbed pays only for the
// pages it uses -- the way QEMU mmaps guest RAM. Like QEMU's guest RAM, a
// block of 2 MiB or more is madvised for transparent huge pages over its
// 2 MiB-aligned interior while it is allocated, so registering a large
// window faults 2 MiB pages instead of 512 small ones each. A kernel with
// THP off ignores the advice.
//
// Offsets are byte offsets into the mapping. Blocks are page-rounded, freed
// by exact offset, and coalesced with their free neighbours.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "sim/status.hpp"
#include "sim/thread_safety.hpp"

namespace vphi::sim {

class PageArena {
 public:
  static constexpr std::uint64_t kPageSize = 4'096;

  /// Maps `bytes` rounded up to a page. Throws std::bad_alloc if the
  /// mapping fails.
  explicit PageArena(std::uint64_t bytes);
  ~PageArena();

  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  /// Allocate `len` bytes (rounded up to page size). Returns the offset of
  /// the block.
  Expected<std::uint64_t> allocate(std::uint64_t len) VPHI_EXCLUDES(mu_);

  /// Free a block previously returned by allocate(). Exact-offset match
  /// required, like a device-side buddy allocator's API.
  Status free(std::uint64_t offset) VPHI_EXCLUDES(mu_);

  /// Host pointer to `offset`; nullptr for offsets past the end.
  void* at(std::uint64_t offset) noexcept;
  const void* at(std::uint64_t offset) const noexcept;

  /// host pointer -> offset; kBadAddress if outside the arena.
  Expected<std::uint64_t> offset_of(const void* p) const noexcept;

  /// True if [offset, offset+len) lies inside one allocated block.
  bool covers(std::uint64_t offset, std::uint64_t len) const
      VPHI_EXCLUDES(mu_);

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t used() const VPHI_EXCLUDES(mu_);
  std::uint64_t allocation_count() const VPHI_EXCLUDES(mu_);

 private:
  std::uint64_t capacity_;
  std::byte* base_;
  mutable Mutex mu_;
  std::map<std::uint64_t, std::uint64_t> free_blocks_
      VPHI_GUARDED_BY(mu_);  // offset -> len
  std::map<std::uint64_t, std::uint64_t> live_blocks_
      VPHI_GUARDED_BY(mu_);  // offset -> len
};

/// Fault in the host pages under [addr, addr+len) writable, without changing
/// their contents -- what get_user_pages does to a range it pins. Memory
/// registered for RMA is populated here instead of on its first DMA, so
/// timed transfers never take the zero-fill faults. A range of two bulk
/// slices or more (sim/fan_out.hpp: at least 16 MiB) is faulted by up to 4
/// threads at once, each over its own 2 MiB-aligned slice; a shorter range
/// is one madvise on the caller's thread. Best effort: a kernel without
/// MADV_POPULATE_WRITE, or a slice whose thread cannot start, still returns,
/// and any page left behind faults on first touch.
void populate_pages(void* addr, std::size_t len) noexcept;

}  // namespace vphi::sim
