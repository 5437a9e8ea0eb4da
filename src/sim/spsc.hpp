// Lock-free bounded channels for cross-shard event traffic.
//
// SpscRing is a classic single-producer/single-consumer ring: the producer
// owns head_, the consumer owns tail_, each caches the other side's index
// so the steady state costs one relaxed load + one release store per
// operation and never touches a lock, a futex or the allocator (the buffer
// is sized once at construction; the vphi-lint no-alloc rule covers this
// file). A full ring reports backpressure (`try_push` returns false)
// instead of blocking — the engine spills to a mutex-guarded sidecar so a
// mid-epoch burst can never deadlock two shards against each other.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace vphi::sim {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. False when the ring is full (backpressure); the value
  /// is untouched on failure.
  bool try_push(const T& v) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ > mask_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    slots_[head & mask_] = v;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Empty optional when nothing is in flight.
  std::optional<T> try_pop() noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return std::nullopt;
    }
    std::optional<T> out(std::move(slots_[tail & mask_]));
    tail_.store(tail + 1, std::memory_order_release);
    return out;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::size_t mask_ = 1;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer-owned
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer-owned
  // Cross-side index caches: tail_cache_ is touched only by the producer,
  // head_cache_ only by the consumer.
  alignas(64) std::size_t tail_cache_ = 0;
  alignas(64) std::size_t head_cache_ = 0;
};

}  // namespace vphi::sim
