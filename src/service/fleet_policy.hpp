// FleetTenantPolicy: the control plane at fleet scale.
//
// Adapts the service-layer machinery (QuotaLedger, FairScheduler,
// TenantMetrics) to the sharded fleet engine's TenantHooks without ever
// taking a lock on the hot path. The trick is partitioning state exactly
// the way the engine partitions work:
//
//  - admission state (byte windows, inflight slots) lives in per-VM
//    *slices*: VM v's ledger is only ever touched from shard v % S (the
//    admit hook runs in v's arrival handler, the completion hook in v's
//    completion handler), so no lock and no nondeterminism. A tenant's
//    bytes_per_window / max_inflight are therefore per-VM-slice budgets —
//    documented in docs/CONTROL_PLANE.md.
//
//  - card-time state lives in per-card ledgers: card c's per-tenant
//    card-ns windows are only ever touched from shard c % S (charged with
//    the modeled service time when the card's FairScheduler dispatches a
//    job; read by its preemption predicate). card_ns_per_window is a
//    per-card budget.
//
//  - per-tenant instruments (vphi.tenant.*) are shared across shards, but
//    instruments are relaxed atomics and headroom gauges are fed by
//    per-slice add-delta publishers, so every cell folds
//    order-independently (docs/DETERMINISM.md rule 4). Instruments are
//    constructed in the policy constructor — main thread, tenant order —
//    keeping registration order deterministic.
//
// The result: installing the policy keeps same-seed fleet runs
// bit-identical, which bench/abl9_tenant_slo.cpp re-verifies on every
// invocation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/job_service.hpp"
#include "service/quota.hpp"
#include "service/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vphi::service {

class SloMonitor;  // service/slo_monitor.hpp

struct FleetTenantPolicyConfig {
  /// The tenant roster; index is the tenant id used everywhere below.
  std::vector<TenantSpec> tenants;
  /// VM -> tenant id, applied as assignment[vm % assignment.size()].
  /// Empty = vm % tenants.size().
  std::vector<std::uint32_t> assignment;
  /// false: every admit hook answers kAdmit and cards keep the engine's
  /// native FIFO queue (no WFQ, no blocking) — the policy only observes,
  /// and the schedule matches a hook-free run bit-exactly. The "quotas
  /// off" arm of abl9.
  bool enforce = true;
  /// Throttle deferral when a tenant is at max_inflight (window
  /// exhaustion defers to the refill instant instead).
  sim::Nanos throttle_ns = 200'000;
  /// Per-job byte ceiling (kReject above it); 0 = none.
  std::uint64_t max_job_bytes = 0;
  /// Keep per-VM latency samples for post-run percentiles (bench use).
  bool collect_latencies = false;
  /// Optional burn-rate monitor; fed every completion / reject and
  /// evaluated once per epoch via TenantHooks::on_epoch. Must be built
  /// with the same tenant roster and VM assignment as this policy, and
  /// must outlive the run. Not owned.
  SloMonitor* slo = nullptr;
};

class FleetTenantPolicy {
 public:
  /// `fleet` supplies vms/cards. Construct on the main thread before
  /// run_fleet().
  FleetTenantPolicy(FleetTenantPolicyConfig cfg,
                    const sim::FleetConfig& fleet);

  /// The hooks to install as FleetConfig::hooks. The policy must outlive
  /// the run_fleet() call.
  sim::TenantHooks hooks();

  std::uint32_t tenant_of(std::uint32_t vm) const noexcept {
    return vm_tenant_[vm % vm_tenant_.size()];
  }
  const TenantSpec& spec(std::uint32_t tenant) const {
    return cfg_.tenants[tenant];
  }

  // Post-run accessors (main thread, after run_fleet returned).
  std::vector<std::uint64_t> completed_per_vm() const;
  /// All collected latencies of one tenant's VMs, sorted ascending
  /// (collect_latencies only).
  std::vector<sim::Nanos> tenant_latencies(std::uint32_t tenant) const;

 private:
  friend class PolicyCardScheduler;

  /// Per-VM admission slice — only touched from shard vm % S.
  struct VmSlice {
    explicit VmSlice(const TenantSpec& spec) : ledger(spec) {}
    QuotaLedger ledger;
    HeadroomPublisher pub;
    std::uint64_t completed = 0;
    std::vector<sim::Nanos> latencies;
  };

  /// Per-card card-time windows — only touched from shard card % S.
  struct CardState {
    std::vector<QuotaLedger> ledgers;  ///< one per tenant (card-ns only)
    std::vector<HeadroomPublisher> pubs;
  };

  sim::AdmitDecision admit(std::uint32_t vm, std::uint32_t bytes,
                           sim::Nanos now);
  void on_complete(std::uint32_t vm, std::uint32_t bytes, sim::Nanos card_ns,
                   sim::Nanos latency_ns, sim::Nanos now, sim::TraceId trace);
  std::unique_ptr<sim::CardScheduler> make_scheduler(std::uint32_t card);
  void charge_card(std::uint32_t card, std::uint32_t tenant,
                   sim::Nanos card_ns, sim::Nanos now);
  sim::Nanos card_blocked_until(std::uint32_t card, std::uint32_t tenant,
                                sim::Nanos now);

  FleetTenantPolicyConfig cfg_;
  std::uint32_t vms_ = 0;
  std::uint32_t cards_ = 0;
  std::vector<std::uint32_t> vm_tenant_;
  std::vector<std::unique_ptr<TenantMetrics>> tm_;
  std::vector<VmSlice> slices_;
  std::vector<CardState> cards_state_;
  std::vector<double> weights_;
  std::vector<sim::Nanos> deadline_rel_;
};

}  // namespace vphi::service
