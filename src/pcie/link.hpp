// PCIe link model.
//
// One Link instance stands in for the PCIe gen2 x16 connection between the
// host root complex and a Xeon Phi card. All DMA occupancy is serialized
// through a sim::BusArbiter so concurrent users (host processes, several
// VMs' backends, the card) contend realistically in simulated time.
//
// Two timing regimes, both from sim::CostModel:
//  * contiguous DMA — host-physically-contiguous target (host SCIF
//    registered windows, card GDDR): raw link bandwidth;
//  * fragmented DMA — pinned guest pages seen through QEMU are only
//    guest-contiguous; the engine pays a scatter-gather descriptor cost per
//    4 KiB page. This is the mechanism behind the paper's 72%-of-native
//    RMA throughput (Fig. 5).
#pragma once

#include <atomic>
#include <cstdint>

#include "sim/bus.hpp"
#include "sim/cost_model.hpp"
#include "sim/stats.hpp"

namespace vphi::pcie {

class Link {
 public:
  explicit Link(const sim::CostModel& model) : model_(&model) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  const sim::CostModel& model() const noexcept { return *model_; }

  /// Reserve the link for a DMA of `bytes`. The requester is ready at
  /// `ready`; the grant reflects queueing behind other transfers. Does not
  /// modify any actor — callers decide whether the op is synchronous.
  /// `prebuilt` marks transfers whose fragmented target carries an sg-list
  /// built once at registration time (zero-copy registered windows).
  sim::BusArbiter::Grant dma(sim::Nanos ready, std::uint64_t bytes,
                             bool fragmented, bool prebuilt = false) {
    const sim::Nanos dur =
        model_->dma_setup_ns +
        model_->dma_transfer_ns(bytes, fragmented, prebuilt);
    auto grant = arbiter_.acquire(ready, dur);
    bytes_moved_ += bytes;
    return grant;
  }

  /// Reserve the link for an arbitrary pre-computed duration (used by the
  /// stream path, whose effective bandwidth differs from raw RMA DMA).
  sim::BusArbiter::Grant occupy(sim::Nanos ready, sim::Nanos duration,
                                std::uint64_t bytes) {
    auto grant = arbiter_.acquire(ready, duration);
    bytes_moved_ += bytes;
    return grant;
  }

  /// Total payload bytes that have crossed the link.
  std::uint64_t bytes_moved() const noexcept { return bytes_moved_; }

  /// Simulated time the link has been busy (utilization accounting).
  sim::Nanos busy_total() const { return arbiter_.busy_total(); }

  std::uint64_t dma_count() const { return arbiter_.grants(); }

 private:
  const sim::CostModel* model_;
  sim::BusArbiter arbiter_;
  std::atomic<std::uint64_t> bytes_moved_{0};
};

}  // namespace vphi::pcie
