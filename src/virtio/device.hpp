// Virtio device status / feature negotiation (virtio 1.0 section 2.1).
//
// The vPHI backend is a virtual PCI device in QEMU; before the frontend
// driver may use its virtqueue the standard status dance must complete:
// ACKNOWLEDGE -> DRIVER -> FEATURES_OK -> DRIVER_OK. We keep the handshake
// (and its failure mode, FAILED) so driver/device lifecycle tests mirror a
// real probe.
#pragma once

#include <atomic>
#include <cstdint>

namespace vphi::virtio {

inline constexpr std::uint8_t VIRTIO_STATUS_ACKNOWLEDGE = 0x01;
inline constexpr std::uint8_t VIRTIO_STATUS_DRIVER = 0x02;
inline constexpr std::uint8_t VIRTIO_STATUS_DRIVER_OK = 0x04;
inline constexpr std::uint8_t VIRTIO_STATUS_FEATURES_OK = 0x08;
inline constexpr std::uint8_t VIRTIO_STATUS_FAILED = 0x80;

/// Feature bits offered by the vPHI backend device.
inline constexpr std::uint64_t VIRTIO_F_VERSION_1 = 1ull << 32;
/// EVENT_IDX notification suppression (virtio 1.0 sec 2.6.7): driver and
/// device publish used_event/avail_event indices so doorbells and interrupts
/// are only delivered when the other side asked for them.
inline constexpr std::uint64_t VIRTIO_F_EVENT_IDX = 1ull << 29;
inline constexpr std::uint64_t VPHI_F_SCIF = 1ull << 0;        ///< SCIF transport
inline constexpr std::uint64_t VPHI_F_MMAP_PFN = 1ull << 1;    ///< VM_PFNPHI path
inline constexpr std::uint64_t VPHI_F_SYSFS_INFO = 1ull << 2;  ///< card info fwd

class DeviceStatus {
 public:
  explicit DeviceStatus(std::uint64_t offered_features)
      : offered_(offered_features) {}

  std::uint64_t offered_features() const noexcept { return offered_; }

  /// Driver writes its accepted feature subset; returns false (and latches
  /// FAILED) if the driver asked for something the device never offered.
  bool negotiate(std::uint64_t accepted) noexcept {
    if ((accepted & ~offered_) != 0) {
      set(VIRTIO_STATUS_FAILED);
      return false;
    }
    accepted_ = accepted;
    set(VIRTIO_STATUS_FEATURES_OK);
    return true;
  }

  std::uint64_t accepted_features() const noexcept { return accepted_; }

  void set(std::uint8_t bit) noexcept {
    status_.fetch_or(bit, std::memory_order_relaxed);
  }
  bool has(std::uint8_t bit) const noexcept {
    return (status_.load(std::memory_order_relaxed) & bit) != 0;
  }

  void reset() noexcept {
    status_.store(0, std::memory_order_relaxed);
    accepted_ = 0;
  }

 private:
  std::uint64_t offered_;
  std::uint64_t accepted_ = 0;
  std::atomic<std::uint8_t> status_{0};
};

}  // namespace vphi::virtio
