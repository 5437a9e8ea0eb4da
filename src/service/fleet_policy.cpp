#include "service/fleet_policy.hpp"

#include <algorithm>

#include "service/slo_monitor.hpp"

namespace vphi::service {

namespace {
/// Strip a TenantSpec down to the dimensions one partition owns.
TenantSpec vm_slice_spec(TenantSpec s) {
  s.card_ns_per_window = 0;  // card time is charged at the cards
  return s;
}
TenantSpec card_slice_spec(TenantSpec s) {
  s.bytes_per_window = 0;
  s.max_inflight = 0;
  return s;
}
}  // namespace

/// The per-card discipline: FairScheduler for selection + preemption,
/// wrapped so every dispatched job charges its modeled service time into
/// this card's per-tenant card-ns window. All calls arrive on the card's
/// shard thread.
class PolicyCardScheduler final : public sim::CardScheduler {
 public:
  PolicyCardScheduler(FleetTenantPolicy* p, std::uint32_t card,
                      FairSchedulerConfig cfg)
      : p_(p), card_(card), inner_(std::move(cfg)) {}

  void enqueue(const sim::CardJob& job) override { inner_.enqueue(job); }

  std::optional<sim::CardJob> next(sim::Nanos now,
                                   sim::Nanos* next_ready) override {
    auto job = inner_.next(now, next_ready);
    if (job && p_->cfg_.enforce) {
      p_->charge_card(card_, p_->tenant_of(job->vm), job->service_ns, now);
    }
    return job;
  }

  bool empty() const override { return inner_.empty(); }

 private:
  FleetTenantPolicy* p_;
  std::uint32_t card_;
  FairScheduler inner_;
};

FleetTenantPolicy::FleetTenantPolicy(FleetTenantPolicyConfig cfg,
                                     const sim::FleetConfig& fleet)
    : cfg_(std::move(cfg)),
      vms_(fleet.vms == 0 ? 1 : fleet.vms),
      cards_(fleet.cards == 0 ? 1 : fleet.cards) {
  if (cfg_.tenants.empty()) cfg_.tenants.push_back(TenantSpec{.name = "t0"});
  const auto T = static_cast<std::uint32_t>(cfg_.tenants.size());

  vm_tenant_.resize(vms_);
  for (std::uint32_t v = 0; v < vms_; ++v) {
    const std::uint32_t t =
        cfg_.assignment.empty()
            ? v % T
            : cfg_.assignment[v % cfg_.assignment.size()];
    vm_tenant_[v] = t < T ? t : t % T;
  }

  // Instruments: main thread, tenant order — deterministic registration.
  tm_.reserve(T);
  weights_.reserve(T);
  deadline_rel_.reserve(T);
  for (const TenantSpec& s : cfg_.tenants) {
    tm_.push_back(std::make_unique<TenantMetrics>(s.name));
    weights_.push_back(cfg_.enforce ? s.weight : 1.0);
    deadline_rel_.push_back(cfg_.enforce ? s.deadline_rel_ns : 0);
  }

  // Every slice preallocated here — shard threads never mutate the
  // containers, only their own elements.
  slices_.reserve(vms_);
  for (std::uint32_t v = 0; v < vms_; ++v) {
    slices_.emplace_back(vm_slice_spec(cfg_.tenants[vm_tenant_[v]]));
  }
  cards_state_.resize(cards_);
  for (CardState& cs : cards_state_) {
    cs.ledgers.reserve(T);
    for (const TenantSpec& s : cfg_.tenants) {
      cs.ledgers.emplace_back(card_slice_spec(s));
    }
    cs.pubs.resize(T);
  }
}

sim::AdmitDecision FleetTenantPolicy::admit(std::uint32_t vm,
                                            std::uint32_t bytes,
                                            sim::Nanos now) {
  const std::uint32_t t = tenant_of(vm);
  if (!cfg_.enforce) {
    tm_[t]->admitted.inc();
    return {sim::AdmitAction::kAdmit, 0};
  }
  VmSlice& slice = slices_[vm];
  const TenantSpec& spec = slice.ledger.spec();
  // A job that can never fit its window is refused outright, as is one
  // over the per-job ceiling — retrying would spin forever.
  if ((cfg_.max_job_bytes != 0 && bytes > cfg_.max_job_bytes) ||
      (spec.bytes_per_window != 0 && bytes > spec.bytes_per_window)) {
    tm_[t]->rejected.inc();
    if (cfg_.slo != nullptr) cfg_.slo->record_reject(vm, now);
    return {sim::AdmitAction::kReject, 0};
  }
  const RejectReason reason = slice.ledger.try_admit(bytes, now);
  if (reason == RejectReason::kNone) {
    tm_[t]->admitted.inc();
    slice.pub.publish(*tm_[t], slice.ledger, now);
    return {sim::AdmitAction::kAdmit, 0};
  }
  tm_[t]->throttled.inc();
  slice.pub.publish(*tm_[t], slice.ledger, now);
  // Window exhaustion waits for the refill; an inflight ceiling waits a
  // fixed beat for completions to drain.
  const sim::Nanos defer =
      reason == RejectReason::kQuotaInflight
          ? cfg_.throttle_ns
          : slice.ledger.window_refill_ns(now) - now;
  return {sim::AdmitAction::kThrottle, defer > 0 ? defer : 1};
}

void FleetTenantPolicy::on_complete(std::uint32_t vm, std::uint32_t bytes,
                                    sim::Nanos card_ns, sim::Nanos latency_ns,
                                    sim::Nanos now, sim::TraceId trace) {
  (void)bytes;
  (void)card_ns;  // card time was charged at dispatch, on the card's shard
  const std::uint32_t t = tenant_of(vm);
  VmSlice& slice = slices_[vm];
  slice.ledger.on_complete();
  ++slice.completed;
  if (cfg_.collect_latencies) slice.latencies.push_back(latency_ns);
  tm_[t]->completed.inc();
  if (cfg_.slo != nullptr) {
    cfg_.slo->record_completion(vm, latency_ns, trace, now);
  }
  if (cfg_.enforce) slice.pub.publish(*tm_[t], slice.ledger, now);
}

void FleetTenantPolicy::charge_card(std::uint32_t card, std::uint32_t tenant,
                                    sim::Nanos card_ns, sim::Nanos now) {
  CardState& cs = cards_state_[card];
  cs.ledgers[tenant].charge_card_ns(card_ns, now);
  cs.pubs[tenant].publish(*tm_[tenant], cs.ledgers[tenant], now);
}

sim::Nanos FleetTenantPolicy::card_blocked_until(std::uint32_t card,
                                                 std::uint32_t tenant,
                                                 sim::Nanos now) {
  if (!cfg_.enforce) return 0;
  QuotaLedger& lg = cards_state_[card].ledgers[tenant];
  if (lg.spec().card_ns_per_window == 0) return 0;
  if (lg.card_ns_headroom(now) > 0) return 0;
  return lg.window_refill_ns(now);
}

std::unique_ptr<sim::CardScheduler> FleetTenantPolicy::make_scheduler(
    std::uint32_t card) {
  FairSchedulerConfig fc;
  fc.tenant_of = [this](std::uint32_t vm) { return tenant_of(vm); };
  fc.weights = weights_;
  fc.deadline_rel = deadline_rel_;
  if (cfg_.enforce) {
    fc.blocked_until = [this, card](std::uint32_t tenant, sim::Nanos now) {
      return card_blocked_until(card, tenant, now);
    };
    fc.on_preempt = [this](std::uint32_t tenant) {
      tm_[tenant]->preempted.inc();
    };
  }
  return std::make_unique<PolicyCardScheduler>(this, card, std::move(fc));
}

sim::TenantHooks FleetTenantPolicy::hooks() {
  sim::TenantHooks h;
  h.admit = [this](std::uint32_t vm, std::uint32_t bytes, sim::Nanos now) {
    return admit(vm, bytes, now);
  };
  // enforce=false keeps the engine's native FIFO card queue: the policy
  // then only *observes* (admission counts, completions, latencies), so
  // the "quotas off" arm of abl9 is a true free-for-all baseline whose
  // schedule is bit-identical to running with no hooks at all.
  if (cfg_.enforce) {
    h.make_card_scheduler = [this](std::uint32_t card) {
      return make_scheduler(card);
    };
  }
  h.on_complete = [this](std::uint32_t vm, std::uint32_t bytes,
                         sim::Nanos card_ns, sim::Nanos latency_ns,
                         sim::Nanos now, sim::TraceId trace) {
    on_complete(vm, bytes, card_ns, latency_ns, now, trace);
  };
  if (cfg_.slo != nullptr) {
    // Window evaluation in the barrier completion step: single-threaded,
    // every per-VM cell quiescent (see SloMonitor's header comment).
    h.on_epoch = [this](sim::Nanos epoch_end) { cfg_.slo->evaluate(epoch_end); };
  }
  sim::Nanos max_defer = cfg_.throttle_ns;
  for (const TenantSpec& s : cfg_.tenants) {
    max_defer = std::max(max_defer, s.window_ns);
  }
  h.max_defer_ns = max_defer;
  return h;
}

std::vector<std::uint64_t> FleetTenantPolicy::completed_per_vm() const {
  std::vector<std::uint64_t> out;
  out.reserve(slices_.size());
  for (const VmSlice& s : slices_) out.push_back(s.completed);
  return out;
}

std::vector<sim::Nanos> FleetTenantPolicy::tenant_latencies(
    std::uint32_t tenant) const {
  std::vector<sim::Nanos> out;
  for (std::uint32_t v = 0; v < vms_; ++v) {
    if (vm_tenant_[v] != tenant) continue;
    out.insert(out.end(), slices_[v].latencies.begin(),
               slices_[v].latencies.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vphi::service
