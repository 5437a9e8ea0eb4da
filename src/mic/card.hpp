// A Xeon Phi card: PCIe link + device memory + uOS + sysfs identity.
//
// The card also owns its own Actor ("the uOS timeline").
// Higher layers attach to it: the SCIF fabric registers the card as a SCIF
// node, and the COI daemon runs as a thread against the card's services.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mic/device_memory.hpp"
#include "mic/sysfs.hpp"
#include "mic/uos.hpp"
#include "pcie/link.hpp"
#include "sim/actor.hpp"
#include "sim/cost_model.hpp"

namespace vphi::mic {

struct CardConfig {
  std::uint32_t index = 0;
  /// Bytes of device memory actually backed by host RAM in the simulation
  /// (allocations beyond this fail with kNoMemory). The sysfs identity still
  /// advertises the full 6 GB of a 3120P.
  std::uint64_t memory_backing_bytes = 1ull << 30;
};

class Card {
 public:
  Card(const CardConfig& config, const sim::CostModel& model);

  Card(const Card&) = delete;
  Card& operator=(const Card&) = delete;

  /// Boot the uOS: charges boot time on the card's timeline and flips the
  /// card online. Idempotent.
  void boot();
  bool online() const noexcept { return online_; }

  std::uint32_t index() const noexcept { return config_.index; }
  const sim::CostModel& model() const noexcept { return *model_; }

  pcie::Link& link() noexcept { return link_; }
  DeviceMemory& memory() noexcept { return memory_; }
  SysfsInfo& sysfs() noexcept { return sysfs_; }
  const SysfsInfo& sysfs() const noexcept { return sysfs_; }
  uos::Scheduler& scheduler() noexcept { return scheduler_; }
  sim::Actor& card_actor() noexcept { return card_actor_; }

 private:
  CardConfig config_;
  const sim::CostModel* model_;
  pcie::Link link_;
  DeviceMemory memory_;
  SysfsInfo sysfs_;
  uos::Scheduler scheduler_;
  sim::Actor card_actor_;
  bool online_ = false;
};

}  // namespace vphi::mic
