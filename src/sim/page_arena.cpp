#include "sim/page_arena.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <optional>
#include <utility>
#include <vector>

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

/// A torn-down arena's mapping, PROT_NONE until an arena of the same
/// capacity takes it. `resident` lists, as (offset, length), the runs of
/// pages that were in core at teardown and were kept. Every page outside
/// them was dropped, so it has neither a page nor a swap slot behind it
/// and reads zero; a kept page may be swapped out since, and the memset on
/// take faults it back in to zero it.
struct Spare {
  std::byte* base;
  std::uint64_t capacity;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> resident;
};

/// A resident run this long is dropped at teardown, as munmap would drop
/// it, instead of kept and zeroed on take: rma_bulk's 64 MiB windows keep
/// their populate path, and the pool holds little memory.
constexpr std::uint64_t kDropRunBytes = 2 * kBulkSliceBytes;

/// The process's spare mappings, oldest first. Never destroyed, so an arena
/// that outlives static destruction still has somewhere to go.
class SparePool {
 public:
  static constexpr std::size_t kMaxSpares = 4;

  /// Remove and return the newest spare of exactly `capacity` bytes.
  std::optional<Spare> take(std::uint64_t capacity) VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (auto it = spares_.rbegin(); it != spares_.rend(); ++it) {
      if (it->capacity != capacity) continue;
      Spare spare = std::move(*it);
      spares_.erase(std::next(it).base());
      return spare;
    }
    return std::nullopt;
  }

  /// Keep `spare`. A full pool returns its oldest spare for the caller to
  /// munmap.
  std::optional<Spare> put(Spare spare) VPHI_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::optional<Spare> evicted;
    if (spares_.size() == kMaxSpares) {
      evicted = std::move(spares_.front());
      spares_.erase(spares_.begin());
    }
    spares_.push_back(std::move(spare));
    return evicted;
  }

  static SparePool& instance() {
    static auto* pool = new SparePool;
    return *pool;
  }

 private:
  SparePool() { spares_.reserve(kMaxSpares); }  // put() never allocates

  Mutex mu_;
  std::vector<Spare> spares_ VPHI_GUARDED_BY(mu_);
};

/// Release a torn-down mapping's pages as munmap would, except for short
/// resident runs below `high_water`, which it lists. Nothing above
/// `high_water` was ever allocated, so whatever a stray write faulted in
/// there is dropped unscanned; below it, mincore finds every page in core,
/// whatever the block list says, and every page it does not find is
/// dropped too: an anonymous page swapped out while the arena lived is not
/// in core, yet would fault its old bytes back in. The mapping is made
/// PROT_NONE, so a stray write faults as it would after munmap. False if
/// the mapping could not be made ready for reuse.
bool retire(Spare& spare, std::uint64_t high_water) {
  std::byte* const base = spare.base;
  if (high_water < spare.capacity &&
      ::madvise(base + high_water, spare.capacity - high_water,
                MADV_DONTNEED) != 0) {
    return false;
  }
  std::vector<unsigned char> in_core(high_water / PageArena::kPageSize);
  if (high_water > 0 && ::mincore(base, high_water, in_core.data()) != 0) {
    return false;
  }
  for (std::size_t i = 0; i < in_core.size();) {
    const bool resident = (in_core[i] & 1) != 0;
    const std::size_t first = i;
    while (i < in_core.size() && ((in_core[i] & 1) != 0) == resident) ++i;
    const std::uint64_t offset = first * PageArena::kPageSize;
    const std::uint64_t len = (i - first) * PageArena::kPageSize;
    if (resident && len < kDropRunBytes) {
      spare.resident.emplace_back(offset, len);
    } else if (::madvise(base + offset, len, MADV_DONTNEED) != 0) {
      return false;
    }
  }
  return ::mprotect(base, spare.capacity, PROT_NONE) == 0;
}

}  // namespace

// mmap rejects a zero length, so a size that wraps when rounded up to a page
// throws here too.
PageArena::PageArena(std::uint64_t bytes) : capacity_(page_round(bytes)) {
  free_blocks_[0] = capacity_;
  if (auto spare = SparePool::instance().take(capacity_)) {
    base_ = spare->base;
    if (::mprotect(base_, capacity_, PROT_READ | PROT_WRITE) == 0) {
      for (const auto& [offset, len] : spare->resident) {
        std::memset(base_ + offset, 0, len);
      }
      return;
    }
    ::munmap(base_, capacity_);
  }
  void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
}

PageArena::~PageArena() {
  std::uint64_t high_water = 0;
  {
    MutexLock lock(mu_);
    high_water = high_water_;
    // Leave the advice as freeing every block would: a range that never
    // held a block of 2 MiB or more keeps a fresh mapping's default.
    for (const auto& [offset, len] : live_blocks_) {
      advise_huge(base_ + offset, len, MADV_NOHUGEPAGE);
    }
  }
  Spare spare{base_, capacity_, {}};
  bool kept = false;
  try {
    kept = retire(spare, high_water);
  } catch (const std::bad_alloc&) {
  }
  if (!kept) {
    ::munmap(base_, capacity_);
  } else if (auto evicted = SparePool::instance().put(std::move(spare))) {
    ::munmap(evicted->base, evicted->capacity);
  }
}

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
    high_water_ = std::max(high_water_, offset + len);
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
