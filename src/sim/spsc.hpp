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
//
// MpscLanes composes one SpscRing per producer into a multi-producer,
// single-consumer inbox whose drain order is *deterministic*: lanes are
// always drained in index order, so as long as the consumer imposes its
// own total order on the drained items (the engine sorts by
// (ts, src_shard, seq)), wall-clock interleaving never leaks into results.
//
// Close semantics (both types): close() stops producers (push fails), but
// consumers keep draining whatever is already in flight and only then see
// "empty + closed" — shutdown never drops events.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
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

  /// Producer side. False when the ring is full (backpressure) or closed;
  /// the value is untouched on failure.
  bool try_push(const T& v) noexcept {
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ > mask_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    slots_[head & mask_] = v;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Empty optional when nothing is in flight (closed or
  /// not — check closed() to distinguish shutdown from a lull).
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

  /// Stop the producer; in-flight items remain poppable.
  void close() noexcept { closed_.store(true, std::memory_order_release); }
  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Racy by nature; exact only when both sides are quiescent (the engine
  /// samples it at epoch barriers, where it is exact).
  std::size_t size_approx() const noexcept {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::size_t mask_ = 1;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer-owned
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer-owned
  alignas(64) std::atomic<bool> closed_{false};
  // Cross-side index caches: tail_cache_ is touched only by the producer,
  // head_cache_ only by the consumer.
  alignas(64) std::size_t tail_cache_ = 0;
  alignas(64) std::size_t head_cache_ = 0;
};

/// Deterministic multi-producer single-consumer inbox: one SPSC lane per
/// producer, drained in fixed lane order.
template <typename T>
class MpscLanes {
 public:
  MpscLanes(std::size_t lanes, std::size_t lane_capacity) {
    lanes_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      lanes_.push_back(std::make_unique<SpscRing<T>>(lane_capacity));
    }
  }

  /// Producer `lane` only. False on backpressure or close.
  bool try_push(std::size_t lane, const T& v) noexcept {
    return lanes_[lane]->try_push(v);
  }

  /// Consumer only: pop every in-flight item, lanes in index order,
  /// calling `sink(lane, item)` for each. Returns the number drained.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    std::size_t n = 0;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      while (auto item = lanes_[lane]->try_pop()) {
        sink(lane, std::move(*item));
        ++n;
      }
    }
    return n;
  }

  void close() noexcept {
    for (auto& lane : lanes_) lane->close();
  }

  SpscRing<T>& lane(std::size_t i) noexcept { return *lanes_[i]; }

 private:
  std::vector<std::unique_ptr<SpscRing<T>>> lanes_;
};

}  // namespace vphi::sim
