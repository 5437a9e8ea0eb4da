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
#pragma once

#include <algorithm>
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
/// the caller instead. `body` must not throw.
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
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < n; ++i) {
    try {
      threads.emplace_back(body, bound(i), bound(i + 1));
    } catch (...) {  // no thread, or no room to keep one
      body(bound(i), bound(i + 1));
    }
  }
  body(begin, bound(1));
  for (std::thread& t : threads) t.join();
}

}  // namespace vphi::sim
