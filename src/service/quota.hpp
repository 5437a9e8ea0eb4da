// Per-tenant quota accounting on the simulated clock.
//
// A TenantSpec declares what one tenant may consume; a QuotaLedger tracks
// one tenant's consumption against it in fixed windows of window_ns
// simulated time. Three dimensions are enforced independently:
//
//  - bytes_per_window: payload bytes admitted per window,
//  - card_ns_per_window: card busy time charged per window (fed by
//    scif::Fabric::charge_card_occupancy via JobService::on_occupancy, or
//    by the fleet engine's modeled service time),
//  - max_inflight: concurrent admitted-but-not-completed jobs (not
//    windowed — a gate, not a rate).
//
// Windows roll forward deterministically from simulated `now`
// (window_start advances in whole window_ns steps), so two same-seed runs
// make identical admit/refuse decisions — the property the fleet bench
// abl9_tenant_slo pins. A zero limit in any dimension means "unlimited".
//
// The ledger itself is NOT thread-safe: JobService guards one with its
// mutex; the fleet policy gives each VM its own shard-local slice (see
// fleet_policy.hpp for why that keeps metrics deterministic).
#pragma once

#include <cstdint>
#include <string>

#include "service/job.hpp"
#include "sim/time.hpp"

namespace vphi::service {

/// One tenant's contract with the control plane.
struct TenantSpec {
  std::string name;
  double weight = 1.0;                 ///< WFQ share (scheduler-side)
  std::uint32_t max_inflight = 0;      ///< concurrent jobs; 0 = unlimited
  std::uint64_t bytes_per_window = 0;  ///< payload budget; 0 = unlimited
  sim::Nanos card_ns_per_window = 0;   ///< card busy budget; 0 = unlimited
  sim::Nanos window_ns = sim::kSecond; ///< quota window length
  sim::Nanos deadline_rel_ns = 0;      ///< per-job EDF deadline; 0 = none
};

class QuotaLedger {
 public:
  explicit QuotaLedger(TenantSpec spec) : spec_(std::move(spec)) {}

  /// Admission check at simulated time `now`: returns kNone and charges
  /// `bytes` + one inflight slot when every dimension has headroom,
  /// otherwise the first exhausted dimension (bytes before card-ns before
  /// inflight) with nothing charged. Card time is a trailing charge (see
  /// charge_card_ns): an exhausted card-ns window refuses here, but the
  /// estimate is not pre-charged.
  RejectReason try_admit(std::uint64_t bytes, sim::Nanos now);

  /// Completion: release one inflight slot.
  void on_complete();

  /// Charge actually-consumed card busy time into the current window.
  void charge_card_ns(sim::Nanos busy, sim::Nanos now);

  /// Remaining budget in the current window ("unlimited" reads as the
  /// sentinel maxima below). Rolls the window as a side effect.
  std::uint64_t bytes_headroom(sim::Nanos now);
  sim::Nanos card_ns_headroom(sim::Nanos now);

  /// First simulated instant at or after `now` when the current window's
  /// byte/card-ns charges are forgotten — what a throttled caller should
  /// wait for.
  sim::Nanos window_refill_ns(sim::Nanos now) const;

  const TenantSpec& spec() const noexcept { return spec_; }

  static constexpr std::uint64_t kUnlimitedBytes = ~std::uint64_t{0};

 private:
  void roll(sim::Nanos now);

  TenantSpec spec_;
  sim::Nanos window_start_ = 0;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t card_ns_used_ = 0;
  std::uint32_t inflight_ = 0;
};

}  // namespace vphi::service
