// JobService: the admission front door of the vPHI control plane.
//
// One JobService guards one host's card(s). The COI daemon consults it on
// every kCreateProcess (src/coi/daemon.cpp) and delays kRunFunction by
// throttle_delay() when a tenant has overdrawn its card-time window; the
// vphi-top testbed drives it the same way. It is mutex-guarded and meant
// for the daemon's request rate — the fleet engine's per-shard hot path
// uses FleetTenantPolicy (fleet_policy.hpp), which shares the quota and
// metric machinery but partitions state per VM instead of locking.
//
// Every tenant gets labeled instruments ("tenant=<name>") under the
// vphi.tenant.* names documented in docs/OBSERVABILITY.md. Because the
// PR 5 label machinery feeds aggregate and breakdown through the same
// atomics, the per-tenant sums equal the aggregates bit-exactly — jobs
// whose tenant cannot be resolved (malformed submissions) are charged to
// the reserved "<invalid>" tenant so the identity survives even abuse.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "service/job.hpp"
#include "service/quota.hpp"
#include "sim/metrics.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::service {

/// The vphi.tenant.* instrument set for one tenant. Shared freely across
/// threads (instruments are atomic); construct on the main thread in a
/// fixed order so registration order stays deterministic.
struct TenantMetrics {
  explicit TenantMetrics(const std::string& tenant)
      : admitted("vphi.tenant.admitted", "tenant=" + tenant),
        rejected("vphi.tenant.rejected", "tenant=" + tenant),
        throttled("vphi.tenant.throttled", "tenant=" + tenant),
        preempted("vphi.tenant.preempted", "tenant=" + tenant),
        completed("vphi.tenant.completed", "tenant=" + tenant),
        bytes_headroom("vphi.tenant.quota.bytes_headroom",
                       "tenant=" + tenant) {}

  sim::metrics::Counter admitted;
  sim::metrics::Counter rejected;
  sim::metrics::Counter throttled;
  sim::metrics::Counter preempted;
  sim::metrics::Counter completed;
  sim::metrics::Gauge bytes_headroom;
};

/// Publishes a ledger's byte headroom into the tenant gauge by *deltas*,
/// never set(): several publishers (one per VM slice in the fleet policy)
/// can then feed one gauge from different shard threads and the folded
/// value stays order-independent (docs/DETERMINISM.md rule 4). An
/// unlimited byte window publishes nothing and the gauge reads 0.
struct HeadroomPublisher {
  std::int64_t bytes = 0;

  void publish(TenantMetrics& m, QuotaLedger& ledger, sim::Nanos now);
};

struct JobServiceConfig {
  JobLimits limits;
  /// false: quota dimensions never refuse or throttle (validation and
  /// accounting still run).
  bool enforce = true;
  /// kRunFunction delay for tenants with an exhausted card-ns window.
  sim::Nanos throttle_ns = 50'000;
  /// Admit tenants never register_tenant()ed by cloning default_spec
  /// (renamed); false refuses them with kUnknownTenant.
  bool auto_register = true;
  TenantSpec default_spec;
};

struct AdmitResult {
  bool admitted = false;
  std::uint64_t job_id = 0;  ///< valid when admitted
  Rejection rejection;       ///< valid when !admitted
};

class JobService {
 public:
  JobService() : JobService(JobServiceConfig{}) {}
  explicit JobService(JobServiceConfig cfg);

  /// Declare a tenant's contract. Re-registering replaces the spec but
  /// keeps the ledger's current window state.
  void register_tenant(const TenantSpec& spec) VPHI_EXCLUDES(mu_);

  /// Full admission pipeline at simulated time `now`: fault injection
  /// (sim::FaultSite::kAdmissionReject), structural validation, then the
  /// tenant's quota ledger. Counts vphi.tenant.admitted / .rejected and
  /// refreshes the headroom gauges.
  AdmitResult admit(const Job& job, sim::Nanos now) VPHI_EXCLUDES(mu_);

  /// Job finished (or its connection died): release the inflight slot.
  void complete(const std::string& tenant, sim::Nanos now)
      VPHI_EXCLUDES(mu_);

  /// Occupancy listener (wire to scif::Fabric::set_occupancy_listener):
  /// charges actual card busy time into the tenant's card-ns window at
  /// the caller's simulated time `now`.
  void on_occupancy(const std::string& tenant, sim::Nanos busy_ns,
                    sim::Nanos now) VPHI_EXCLUDES(mu_);

  /// Delay to impose on the tenant's next card interaction: cfg.throttle_ns
  /// while its card-ns window is exhausted, else 0. Counts
  /// vphi.tenant.throttled when non-zero.
  sim::Nanos throttle_delay(const std::string& tenant, sim::Nanos now)
      VPHI_EXCLUDES(mu_);

  const JobServiceConfig& config() const noexcept { return cfg_; }

  /// Reserved tenant label charged with unresolvable submissions.
  static constexpr const char* kInvalidTenant = "<invalid>";

 private:
  struct TenantState {
    explicit TenantState(const TenantSpec& spec)
        : ledger(spec), metrics(std::make_unique<TenantMetrics>(spec.name)) {}
    QuotaLedger ledger;
    std::unique_ptr<TenantMetrics> metrics;
    HeadroomPublisher pub;
  };

  TenantState& state_locked(const std::string& name) VPHI_REQUIRES(mu_);

  JobServiceConfig cfg_;
  mutable sim::Mutex mu_;
  std::map<std::string, TenantState> tenants_ VPHI_GUARDED_BY(mu_);
  std::uint64_t next_id_ VPHI_GUARDED_BY(mu_) = 1;
};

}  // namespace vphi::service
