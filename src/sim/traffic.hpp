// Seeded open/closed-loop traffic generation for fleet-scale runs.
//
// Every VM of a fleet scenario owns a TrafficStream: a splittable RNG
// stream (Rng::stream(master_seed, vm)) plus a pointer to the run's one
// TrafficConfig shape, which must outlive the stream. A stream's schedule
// is a pure function of (master_seed, vm index, config) — never of thread
// interleaving or of any other VM's progress — which is what lets two
// same-seed runs produce bit-identical metrics (docs/DETERMINISM.md).
//
// Shapes modeled, all on the simulated clock:
//  - open-loop Poisson arrivals whose rate follows a curve: linear ramp
//    (rate_slope_per_s) plus periodic bursts (burst_factor during
//    burst_len_ns out of every burst_period_ns);
//  - closed-loop think time between a completion and the next submit;
//  - tenant churn: per-arrival disconnect probability with a reconnect
//    after churn_down_ns;
//  - connect/disconnect storms: every storm_stride-th VM drops at
//    storm_at_ns and returns storm_len_ns later (a pure function of
//    (vm, t), so shards agree without exchanging any state).
//
// The hot-path methods allocate nothing (the vphi-lint no-alloc rule
// covers this file).
#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace vphi::sim {

struct TrafficConfig {
  /// true: arrivals follow the rate curve regardless of completions.
  /// false: closed loop — each VM keeps one request in flight and thinks
  /// think_ns (exponentially distributed) between completion and resubmit.
  bool open_loop = true;

  double rate_hz = 20'000.0;        ///< per-VM mean arrival rate at t=0
  double rate_slope_per_s = 0.0;    ///< linear ramp, arrivals/s per second

  double burst_factor = 1.0;        ///< rate multiplier inside a burst
  Nanos burst_period_ns = 0;        ///< 0 = no bursts
  Nanos burst_len_ns = 0;           ///< burst prefix of each period

  Nanos think_ns = 50'000;          ///< closed-loop mean think time

  std::uint32_t bytes_min = 64;     ///< request payload bounds (uniform)
  std::uint32_t bytes_max = 4'096;

  double churn_disconnect_prob = 0.0;  ///< per-arrival disconnect chance
  Nanos churn_down_ns = 0;             ///< downtime per churn disconnect

  Nanos storm_at_ns = 0;            ///< 0 = no storm
  Nanos storm_len_ns = 0;
  std::uint32_t storm_stride = 0;   ///< every Nth VM participates; 0 = none

  /// Per-tenant traffic shaping. A fleet with num_tenant_profiles > 0 maps
  /// VM v to tenant_profiles[v % num_tenant_profiles] and scales that VM's
  /// rate, think time and payload sizes by the profile's multipliers —
  /// still a pure function of (seed, vm, config): the underlying draw
  /// sequence is untouched, only the drawn values are scaled, so enabling
  /// profiles never shears the draw-order discipline of
  /// docs/DETERMINISM.md rule 1. num_tenant_profiles == 0 keeps every VM
  /// on the unscaled base shape (the pre-control-plane behavior).
  static constexpr std::uint32_t kMaxTenantProfiles = 8;
  struct TenantTrafficProfile {
    double rate_mult = 1.0;   ///< open-loop arrival-rate multiplier
    double think_mult = 1.0;  ///< closed-loop think-time multiplier
    double bytes_mult = 1.0;  ///< payload-size multiplier (result >= 1 byte)
  };
  TenantTrafficProfile tenant_profiles[kMaxTenantProfiles] = {};
  std::uint32_t num_tenant_profiles = 0;  ///< 0 = profiles disabled

  /// The profile VM `vm` runs under (the identity profile when disabled).
  const TenantTrafficProfile& profile_of(std::uint32_t vm) const noexcept {
    static constexpr TenantTrafficProfile kIdentity{};
    if (num_tenant_profiles == 0) return kIdentity;
    const std::uint32_t n =
        num_tenant_profiles > kMaxTenantProfiles ? kMaxTenantProfiles
                                                 : num_tenant_profiles;
    return tenant_profiles[vm % n];
  }

  /// Largest bytes_mult across active profiles (>= 1.0); sizes the
  /// engine's worst-case-round runaway guard.
  double max_bytes_mult() const noexcept {
    double m = 1.0;
    const std::uint32_t n =
        num_tenant_profiles > kMaxTenantProfiles ? kMaxTenantProfiles
                                                 : num_tenant_profiles;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (tenant_profiles[i].bytes_mult > m) m = tenant_profiles[i].bytes_mult;
    }
    return m;
  }
};

class TrafficStream {
 public:
  TrafficStream(std::uint64_t master_seed, std::uint32_t vm,
                const TrafficConfig& cfg) noexcept
      : cfg_(&cfg), vm_(vm), rng_(Rng::stream(master_seed, vm)) {}
  /// The stream keeps a pointer to its config, so a temporary would dangle.
  TrafficStream(std::uint64_t, std::uint32_t, TrafficConfig&&) = delete;

  /// Instantaneous arrival rate at simulated time `t` (arrivals/s),
  /// clamped to a small positive floor so gaps stay finite.
  double rate_at(Nanos t) const noexcept;

  /// Next exponential inter-arrival gap for an arrival generated at `now`
  /// (>= 1 ns). Consumes one draw.
  Nanos next_gap(Nanos now) noexcept;

  /// Payload size for the next request. Consumes one draw.
  std::uint32_t next_bytes() noexcept;

  /// Closed-loop think time (exponential, mean cfg.think_ns, >= 1 ns).
  /// Consumes one draw.
  Nanos next_think() noexcept;

  /// Churn decision for an arrival at `now`: downtime in ns (> 0 means
  /// disconnect now, reconnect after the returned downtime), 0 = stay.
  /// Consumes one draw when churn is configured.
  Nanos maybe_disconnect() noexcept;

  /// True when `t` falls inside this VM's connect/disconnect storm window
  /// — a pure function of (vm, config, t), no RNG draw.
  bool in_storm(Nanos t) const noexcept;

 private:
  const TrafficConfig* cfg_;
  std::uint32_t vm_;
  Rng rng_;
};

}  // namespace vphi::sim
