// The SCIF fabric: the set of nodes reachable over PCIe plus the shared
// readiness hub used by scif_poll().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scif/node.hpp"
#include "scif/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::mic {
class Card;
}
namespace vphi::pcie {
class Link;
}

namespace vphi::scif {

/// Wakes scif_poll() waiters whenever any endpoint's readiness changes.
class PollHub {
 public:
  void notify() VPHI_EXCLUDES(mu_) {
    {
      sim::MutexLock lock(mu_);
      ++version_;
    }
    cv_.notify_all();
  }

  std::uint64_t version() const VPHI_EXCLUDES(mu_) {
    sim::MutexLock lock(mu_);
    return version_;
  }

  /// Wait (real time, bounded) until version changes from `seen`.
  /// Returns the new version, or `seen` on timeout.
  std::uint64_t wait_change(std::uint64_t seen, int timeout_ms)
      VPHI_EXCLUDES(mu_);

 private:
  mutable sim::Mutex mu_;
  sim::CondVar cv_;
  std::uint64_t version_ VPHI_GUARDED_BY(mu_) = 0;
};

class Fabric {
 public:
  explicit Fabric(const sim::CostModel& model);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Attach a card as the next SCIF node; returns its node id.
  NodeId attach_card(mic::Card& card);

  Node* node(NodeId id) noexcept;
  std::uint16_t node_count() const noexcept {
    return static_cast<std::uint16_t>(nodes_.size());
  }

  /// The PCIe link data between `a` and `b` rides, or nullptr for
  /// host-local loopback. Card<->card peer-to-peer uses the initiator's
  /// card link (traffic crosses the host root complex either way).
  pcie::Link* link_between(NodeId a, NodeId b) noexcept;

  const sim::CostModel& model() const noexcept { return *model_; }
  PollHub& poll_hub() noexcept { return poll_hub_; }

  /// Per-tenant card-core occupancy accounting. Each backend charges the
  /// simulated time its host process spent servicing SCIF calls for one
  /// tenant (a VM, or a native host process) — which is exactly how the
  /// shared card's time divides across the VMs multiplexed onto it.
  /// Registered as "vphi.card.busy_ns" labeled "vm=<tenant>".
  /// Lock order: occupancy_mu_ -> registry mu_ (first charge for a tenant
  /// constructs its labeled Counter, which self-registers, while holding
  /// occupancy_mu_; the registry never calls back out).
  void charge_card_occupancy(const std::string& tenant, sim::Nanos busy_ns)
      VPHI_EXCLUDES(occupancy_mu_);
  /// tenant -> accumulated busy ns, for fairness computations.
  std::map<std::string, std::uint64_t> card_occupancy() const
      VPHI_EXCLUDES(occupancy_mu_);

  /// Control-plane tap: every charge_card_occupancy() call is mirrored to
  /// the listener (typically service::JobService::on_occupancy, which
  /// charges the tenant's card-ns quota window). The listener runs
  /// *outside* occupancy_mu_ — it may take its own locks (the JobService
  /// mutex) without creating a lock-order edge against this one. Null
  /// clears it.
  using OccupancyListener =
      std::function<void(const std::string& tenant, sim::Nanos busy_ns)>;
  void set_occupancy_listener(OccupancyListener listener)
      VPHI_EXCLUDES(occupancy_mu_);

 private:
  const sim::CostModel* model_;
  std::vector<std::unique_ptr<Node>> nodes_;
  PollHub poll_hub_;

  mutable sim::Mutex occupancy_mu_;
  std::map<std::string, std::unique_ptr<sim::metrics::Counter>>
      card_busy_by_tenant_ VPHI_GUARDED_BY(occupancy_mu_);
  // shared_ptr so a charge can copy the handle under the lock and invoke
  // the listener after dropping it (see set_occupancy_listener).
  std::shared_ptr<const OccupancyListener> occupancy_listener_
      VPHI_GUARDED_BY(occupancy_mu_);
};

}  // namespace vphi::scif
