// Deterministic RNG for workload generation and property tests.
// SplitMix64: tiny, fast, excellent distribution for non-crypto use.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vphi::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : state_(seed) {}

  /// Derive an independent stream from a master seed: stream(seed, i) and
  /// stream(seed, j) are decorrelated for i != j, and the result depends
  /// only on (seed, id) — never on how many draws any other stream has
  /// made. This is what gives every VM / shard of the fleet engine its own
  /// schedule that is bit-stable under any thread interleaving.
  static Rng stream(std::uint64_t seed, std::uint64_t id) noexcept {
    return Rng(mix(seed ^ mix(id + 0x632BE59BD9B4E019ull)));
  }

  /// SplitMix64's constants: the state's increment per draw, and the two
  /// multipliers of the finalizer.
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
  static constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ull;
  static constexpr std::uint64_t kMix2 = 0x94D049BB133111EBull;

  std::uint64_t next() noexcept { return mix(state_ += kGamma); }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }

  /// Uniform in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Fills of this many bytes or more take fill_wide(). Its streaming
  /// stores bypass the cache, which pays only for buffers well past L2.
  static constexpr std::size_t kWideFillBytes = std::size_t{2} << 20;

  /// Fill `n` bytes with reproducible pseudo-random content: the bytes of
  /// draw k land at dst + 8k, and a trailing partial word consumes a draw.
  /// Every path writes the same bytes and leaves the same state.
  void fill(void* dst, std::size_t n) noexcept {
    if (n >= kWideFillBytes) {
      fill_wide(dst, n);
    } else {
      fill_scalar(dst, n);
    }
  }

  /// fill()'s bulk path at any size: whole 64-byte lines of 8 draws each
  /// go out as AVX-512 streaming stores. It is fill_scalar() where the CPU
  /// lacks AVX-512DQ, where `dst` is not 8-byte aligned, and in sanitized
  /// builds, so the sanitizers see every store.
  void fill_wide(void* dst, std::size_t n) noexcept;

  /// fill()'s reference path: one draw per 8 bytes.
  void fill_scalar(void* dst, std::size_t n) noexcept {
    auto* p = static_cast<unsigned char*>(dst);
    while (n >= 8) {
      const std::uint64_t v = next();
      __builtin_memcpy(p, &v, 8);
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      const std::uint64_t v = next();
      __builtin_memcpy(p, &v, n);
    }
  }

 private:
  /// SplitMix64 finalizer: a bijective avalanche so adjacent stream ids
  /// land far apart in state space.
  static std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * kMix1;
    z = (z ^ (z >> 27)) * kMix2;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

}  // namespace vphi::sim
