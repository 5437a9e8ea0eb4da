// Fork-join over a range: cut [begin, end) into a few contiguous slices and
// run them at once, the caller's thread taking slice 0 the way run_fleet
// runs shard 0. Every spawned thread is joined before fan_out returns; there
// is no pool.
//
// The slice count is min(cap, (end - begin) / min_slice), a function of the
// length alone and never of the host's core count, so every machine runs the
// same slices. Inner bounds are rounded down to multiples of `align` as
// absolute values, so a caller slicing memory keeps each huge page or cache
// line within one slice.
//
// No slice starts until every slice thread exists: each spawned thread
// spin-yields on one flag that the caller raises after its last spawn.
// pthread_create maps the new thread's stack when glibc has none cached,
// and that mmap takes the process's mmap_lock for write; a slice already
// inside populate_pages' MADV_POPULATE_WRITE holds the same lock for read
// across its whole slice, so a slice started early would hold back every
// spawn after it and the slices would run one after another.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace vphi::sim {

/// The bulk memory passes of RMA window setup (populate_pages, the wide
/// Rng fill): at most 4 slices of at least 8 MiB, cut on 2 MiB bounds so
/// no transparent huge page is faulted by two threads.
inline constexpr std::size_t kBulkSliceBytes = std::size_t{8} << 20;
inline constexpr std::size_t kBulkSlices = 4;
inline constexpr std::size_t kBulkSliceAlign = std::size_t{2} << 20;

/// Run `body(lo, hi)` over consecutive slices of [begin, end); fewer than
/// two slices is one call on the caller's thread. Requires
/// 0 < align <= min_slice. A slice whose thread cannot be started runs on
/// the caller instead, after the others are released. `body` must not
/// throw.
template <typename Body>
void fan_out(std::size_t begin, std::size_t end, std::size_t min_slice,
             std::size_t cap, std::size_t align, Body body) noexcept {
  const std::size_t n = std::min(cap, (end - begin) / min_slice);
  if (n <= 1) {
    body(begin, end);
    return;
  }
  const std::size_t step = (end - begin) / n;
  const auto bound = [&](std::size_t i) {
    return i == n ? end : (begin + i * step) / align * align;
  };
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;  // threads[i - 1] runs slice i
  try {
    threads.resize(n - 1);
  } catch (...) {  // no room: every slice runs on the caller
  }
  for (std::size_t i = 1; i <= threads.size(); ++i) {
    try {
      threads[i - 1] = std::thread(
          [&go, body, lo = bound(i), hi = bound(i + 1)]() mutable {
            while (!go.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
            body(lo, hi);
          });
    } catch (...) {  // no thread: the slice runs on the caller below
    }
  }
  go.store(true, std::memory_order_release);
  body(begin, bound(1));
  for (std::size_t i = 1; i < n; ++i) {
    if (i > threads.size() || !threads[i - 1].joinable()) {
      body(bound(i), bound(i + 1));
    }
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace vphi::sim
