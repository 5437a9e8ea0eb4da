#include "sim/page_arena.hpp"

#include <sys/mman.h>

#include <new>

#include "sim/fan_out.hpp"

namespace vphi::sim {

namespace {

constexpr std::uint64_t page_round(std::uint64_t len) {
  return (len + PageArena::kPageSize - 1) / PageArena::kPageSize *
         PageArena::kPageSize;
}

constexpr std::uintptr_t kHugePageSize = 2ull << 20;

/// madvise the 2 MiB-aligned interior of a block. Only a block of at least
/// 2 MiB can have one; smaller blocks are left alone.
void advise_huge(std::byte* block, std::uint64_t len, int advice) noexcept {
  const auto start = reinterpret_cast<std::uintptr_t>(block);
  const std::uintptr_t first =
      (start + kHugePageSize - 1) & ~(kHugePageSize - 1);
  const std::uintptr_t last = (start + len) & ~(kHugePageSize - 1);
  if (last > first) {
    ::madvise(reinterpret_cast<void*>(first), last - first, advice);
  }
}

}  // namespace

// mmap rejects a zero length, so a size that wraps when rounded up to a page
// throws here too.
PageArena::PageArena(std::uint64_t bytes) : capacity_(page_round(bytes)) {
  void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
  free_blocks_[0] = capacity_;
}

PageArena::~PageArena() { ::munmap(base_, capacity_); }

Expected<std::uint64_t> PageArena::allocate(std::uint64_t len) {
  if (len == 0) return Status::kInvalidArgument;
  if (len > capacity_) return Status::kNoMemory;
  len = page_round(len);
  MutexLock lock(mu_);
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    if (it->second < len) continue;
    const std::uint64_t offset = it->first;
    const std::uint64_t remainder = it->second - len;
    free_blocks_.erase(it);
    if (remainder > 0) free_blocks_[offset + len] = remainder;
    live_blocks_[offset] = len;
    // Large blocks fault 2 MiB at a time, as QEMU madvises guest RAM.
    advise_huge(base_ + offset, len, MADV_HUGEPAGE);
    return offset;
  }
  return Status::kNoMemory;
}

Status PageArena::free(std::uint64_t offset) {
  MutexLock lock(mu_);
  auto it = live_blocks_.find(offset);
  if (it == live_blocks_.end()) return Status::kInvalidArgument;
  std::uint64_t len = it->second;
  live_blocks_.erase(it);
  // Small blocks carved from this range later keep faulting 4 KiB pages.
  advise_huge(base_ + offset, len, MADV_NOHUGEPAGE);

  // Coalesce with the next free block if adjacent.
  auto next = free_blocks_.lower_bound(offset);
  if (next != free_blocks_.end() && next->first == offset + len) {
    len += next->second;
    free_blocks_.erase(next);
  }
  // Coalesce with the previous free block if adjacent.
  auto prev = free_blocks_.lower_bound(offset);
  if (prev != free_blocks_.begin()) {
    --prev;
    if (prev->first + prev->second == offset) {
      prev->second += len;
      return Status::kOk;
    }
  }
  free_blocks_[offset] = len;
  return Status::kOk;
}

void* PageArena::at(std::uint64_t offset) noexcept {
  if (offset >= capacity_) return nullptr;
  return base_ + offset;
}

const void* PageArena::at(std::uint64_t offset) const noexcept {
  if (offset >= capacity_) return nullptr;
  return base_ + offset;
}

Expected<std::uint64_t> PageArena::offset_of(const void* p) const noexcept {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const auto base = reinterpret_cast<std::uintptr_t>(base_);
  if (addr < base || addr - base >= capacity_) return Status::kBadAddress;
  return static_cast<std::uint64_t>(addr - base);
}

bool PageArena::covers(std::uint64_t offset, std::uint64_t len) const {
  MutexLock lock(mu_);
  auto it = live_blocks_.upper_bound(offset);
  if (it == live_blocks_.begin()) return false;
  --it;
  // `len` comes from guests and COI clients: compare against the room left
  // in the block, never `offset + len`, which can wrap.
  const std::uint64_t end = it->first + it->second;
  return offset <= end && len <= end - offset;
}

std::uint64_t PageArena::used() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [_, len] : live_blocks_) total += len;
  return total;
}

std::uint64_t PageArena::allocation_count() const {
  MutexLock lock(mu_);
  return live_blocks_.size();
}

void populate_pages(void* addr, std::size_t len) noexcept {
  const auto start = reinterpret_cast<std::uintptr_t>(addr);
  const auto first = start & ~std::uintptr_t{PageArena::kPageSize - 1};
  fan_out(first, start + len, kBulkSliceBytes, kBulkSlices, kBulkSliceAlign,
          [](std::uintptr_t lo, std::uintptr_t hi) {
            ::madvise(reinterpret_cast<void*>(lo), hi - lo,
                      MADV_POPULATE_WRITE);
          });
}

}  // namespace vphi::sim
