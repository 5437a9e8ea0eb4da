#include "sim/rng.hpp"

#include <algorithm>
#include <cstdint>

#include "sim/fan_out.hpp"

// The wide path is x86-64 only, and sanitized builds compile it out: a
// streaming store is one instruction the sanitizers would not look inside.
#if defined(__x86_64__) && !defined(VPHI_SANITIZED)
#define VPHI_WIDE_FILL 1
#include <immintrin.h>
#else
#define VPHI_WIDE_FILL 0
#endif

namespace vphi::sim {

#if VPHI_WIDE_FILL
namespace {

// GCC vector extensions rather than _mm512_* arithmetic: GCC 12 raises a
// false -Wmaybe-uninitialized inside _mm512_srli_epi64 / _mm512_set1_epi64.
using Lanes = std::uint64_t __attribute__((vector_size(64)));

bool cpu_has_wide_fill() noexcept {
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq");
  return has;
}

/// Write `lines` 64-byte lines at the 64-byte aligned `p`, bypassing the
/// cache: lane j of line i is the finalized draw 8i+j+1 after `state`.
[[gnu::target("avx512f,avx512dq")]] void stream_lines(
    std::uint64_t state, unsigned char* p, std::size_t lines) noexcept {
  constexpr std::uint64_t g = Rng::kGamma;
  Lanes s = {state + g,     state + 2 * g, state + 3 * g, state + 4 * g,
             state + 5 * g, state + 6 * g, state + 7 * g, state + 8 * g};
  for (std::size_t i = 0; i < lines; ++i, p += 64) {
    Lanes z = s;
    z = (z ^ (z >> 30)) * Rng::kMix1;
    z = (z ^ (z >> 27)) * Rng::kMix2;
    z ^= z >> 31;
    _mm512_stream_si512(reinterpret_cast<__m512i*>(p), (__m512i)z);
    s += 8 * g;
  }
  _mm_sfence();
}

}  // namespace
#endif

void Rng::fill_wide(void* dst, std::size_t n) noexcept {
  auto* p = static_cast<unsigned char*>(dst);
#if VPHI_WIDE_FILL
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  // From an address that is not 8-aligned no draw boundary is ever
  // line-aligned, so that case stays scalar.
  if (addr % 8 == 0 && cpu_has_wide_fill()) {
    // Inner slice bounds are 2 MiB-aligned, hence line-aligned and a whole
    // number of draws past `addr`: the slice at `lo` starts its own stream
    // (lo - addr) / 8 draws after state_.
    const std::uint64_t start = state_;
    fan_out(addr, addr + n, kBulkSliceBytes, kBulkSlices, kBulkSliceAlign,
            [addr, start](std::uintptr_t lo, std::uintptr_t hi) {
              Rng r{start + (lo - addr) / 8 * kGamma};
              auto* q = reinterpret_cast<unsigned char*>(lo);
              const std::size_t len = hi - lo;
              // Whole draws up to the first line boundary, whole lines,
              // then the tail.
              const std::size_t head =
                  std::min<std::size_t>(len, (0 - lo) % 64);
              const std::size_t lines = (len - head) / 64;
              r.fill_scalar(q, head);
              stream_lines(r.state_, q + head, lines);
              r.state_ += 8 * lines * kGamma;
              r.fill_scalar(q + head + 64 * lines, len - head - 64 * lines);
            });
    state_ = start + (n + 7) / 8 * kGamma;
    return;
  }
#endif
  fill_scalar(p, n);
}

}  // namespace vphi::sim
