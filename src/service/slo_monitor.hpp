// SloMonitor: multi-window burn-rate alerting over the tenant series.
//
// Each tenant has an SLO ("99% of requests complete under L ns over
// period P"). The error budget is the allowed bad fraction (1 - objective)
// and the *burn rate* of a window is
//
//   burn = (bad / total) / (1 - objective)
//
// — burn 1.0 consumes the budget exactly over the period, burn N consumes
// it N times too fast. A single window either pages too late (long window)
// or flaps on noise (short window); the standard fix is to require TWO
// windows to burn simultaneously: a fast window (1% of the period) that
// ends the alert promptly once the problem stops, and a slow window (5%)
// that rides out blips. The monitor evaluates both on the simulated clock
// and raises an edge-triggered alert per tenant while both exceed the
// threshold, incrementing `vphi.slo.alerts` and dumping the flight
// recorder focused on the tenant's most recent SLO-violating request, so
// the page carries the offending span chain.
//
// Determinism and threading follow the fleet engine's partitioning:
// record_completion / record_reject write per-VM cells only from the VM's
// shard thread (plain fields, no atomics needed), and evaluate() runs in
// the epoch barrier's completion step — single-threaded, all shard
// threads parked, every cell quiescent — wired via TenantHooks::on_epoch.
// Everything the monitor publishes is a pure function of the simulated
// schedule, so installing it keeps same-seed runs bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace vphi::service {

struct SloSpec {
  /// A request slower than this is "bad" (an admission reject is always
  /// bad: the user saw an error).
  sim::Nanos latency_slo_ns = 100'000;
  /// Fraction of requests promised good over the period (0.99 => 1%
  /// error budget).
  double objective = 0.99;
  /// Error-budget period the burn rate is measured against.
  sim::Nanos period_ns = 20 * sim::kMillisecond;
  /// Fast / slow window lengths as fractions of the period.
  double fast_window_frac = 0.01;
  double slow_window_frac = 0.05;
  /// Both windows must burn above this to alert (and the alert clears
  /// when either drops back under).
  double burn_threshold = 2.0;
  /// Minimum events in the fast window before it can trip — a nearly idle
  /// tenant's first slow request is not a page.
  std::uint64_t min_events = 16;
};

class SloMonitor {
 public:
  /// `vm_tenant[vm]` maps each VM to its tenant index in `tenant_names`.
  /// Construct on the main thread before run_fleet() (instrument
  /// registration order stays deterministic: tenant order).
  SloMonitor(const SloSpec& spec, std::vector<std::string> tenant_names,
             std::vector<std::uint32_t> vm_tenant);

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// One completion for `vm`. Called on the VM's shard thread.
  void record_completion(std::uint32_t vm, sim::Nanos latency_ns,
                         sim::TraceId trace, sim::Nanos now);
  /// One admission reject for `vm` (counts as a bad event). Same thread
  /// rules as record_completion.
  void record_reject(std::uint32_t vm, sim::Nanos now);

  /// Window evaluation; wire as TenantHooks::on_epoch. Advances the
  /// bucket ring at fast-window boundaries, recomputes both burn rates,
  /// raises/clears alerts. Single-threaded by contract (barrier
  /// completion step).
  void evaluate(sim::Nanos now);

  const SloSpec& spec() const noexcept { return spec_; }
  std::uint64_t alert_count() const noexcept { return alerts_total_; }
  std::uint64_t alert_count(std::uint32_t tenant) const {
    return tenants_[tenant]->alerts;
  }
  bool alerting(std::uint32_t tenant) const {
    return tenants_[tenant]->alerting;
  }
  /// Burn rates as of the last completed fast-window bucket.
  double burn_fast(std::uint32_t tenant) const {
    return tenants_[tenant]->burn_fast;
  }
  double burn_slow(std::uint32_t tenant) const {
    return tenants_[tenant]->burn_slow;
  }

 private:
  /// Written only from the owning VM's shard thread; read in evaluate()
  /// (barrier completion step — the arrival edge orders the accesses).
  struct alignas(64) VmCell {
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
    sim::TraceId last_bad_trace = 0;
    sim::Nanos last_bad_ts = 0;
  };

  /// Cumulative (total, bad) at a fast-window boundary; the fast burn is
  /// the delta over one bucket, the slow burn over slow/fast buckets.
  struct Bucket {
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };

  struct TenantState {
    explicit TenantState(const std::string& tenant_name)
        : name(tenant_name),
          alerts_counter("vphi.slo.alerts", "tenant=" + tenant_name),
          bad_counter("vphi.slo.bad", "tenant=" + tenant_name) {}

    std::string name;
    sim::metrics::Counter alerts_counter;
    sim::metrics::Counter bad_counter;

    std::vector<Bucket> history;  ///< cumulative, one per fast window
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    bool alerting = false;
    std::uint64_t alerts = 0;
    std::uint64_t bad_reported = 0;  ///< bad events already on bad_counter
  };

  /// Burn rate over the trailing `buckets` fast windows; also reports the
  /// event count in that span (for the min_events gate).
  double window_burn(const TenantState& t, std::size_t buckets,
                     std::uint64_t* events_out) const;

  SloSpec spec_;
  sim::Nanos fast_window_ns_ = 1;
  std::size_t slow_buckets_ = 1;
  sim::Nanos next_bucket_end_ = 0;
  std::vector<std::uint32_t> vm_tenant_;
  std::vector<VmCell> cells_;  ///< one per VM
  std::vector<std::unique_ptr<TenantState>> tenants_;

  std::uint64_t alerts_total_ = 0;
};

}  // namespace vphi::service
