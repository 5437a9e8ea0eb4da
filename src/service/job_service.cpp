#include "service/job_service.hpp"

#include <limits>

#include "sim/actor.hpp"
#include "sim/fault.hpp"
#include "sim/log.hpp"

namespace vphi::service {

void HeadroomPublisher::publish(TenantMetrics& m, QuotaLedger& ledger,
                                sim::Nanos now) {
  const TenantSpec& spec = ledger.spec();
  if (spec.bytes_per_window != 0) {
    const auto h = static_cast<std::int64_t>(ledger.bytes_headroom(now));
    m.bytes_headroom.add(h - bytes);
    bytes = h;
  }
}

JobService::JobService(JobServiceConfig cfg) : cfg_(std::move(cfg)) {}

JobService::TenantState& JobService::state_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantSpec spec = cfg_.default_spec;
    spec.name = name;
    it = tenants_.emplace(name, TenantState(spec)).first;
  }
  return it->second;
}

void JobService::register_tenant(const TenantSpec& spec) {
  sim::MutexLock lock(mu_);
  auto it = tenants_.find(spec.name);
  if (it == tenants_.end()) {
    tenants_.emplace(spec.name, TenantState(spec));
  } else {
    it->second.ledger = QuotaLedger(spec);
  }
}

AdmitResult JobService::admit(const Job& job, sim::Nanos now) {
  AdmitResult r;
  sim::MutexLock lock(mu_);

  // Resolve the billing identity first so even a refusal is attributed.
  const bool resolvable = !job.tenant.empty() &&
                          (cfg_.auto_register ||
                           tenants_.find(job.tenant) != tenants_.end());
  TenantState& st =
      state_locked(resolvable ? job.tenant : std::string(kInvalidTenant));

  auto reject = [&](RejectReason reason, std::string detail) {
    st.metrics->rejected.inc();
    VPHI_LOG(kWarn, "service")
        << "reject tenant=" << job.tenant << " kernel=" << job.kernel
        << " reason=" << reject_reason_name(reason) << " (" << detail << ")";
    r.admitted = false;
    r.rejection = Rejection{reason, std::move(detail)};
    return r;
  };

  if (sim::fault_injector().should_fire(sim::FaultSite::kAdmissionReject)) {
    return reject(RejectReason::kFaultInjected, "injected admission fault");
  }
  if (auto bad = validate_job(job, cfg_.limits)) {
    return reject(bad->reason, std::move(bad->detail));
  }
  if (!resolvable) {
    return reject(RejectReason::kUnknownTenant,
                  "tenant '" + job.tenant + "' not registered");
  }
  if (cfg_.enforce) {
    const RejectReason quota = st.ledger.try_admit(job.bytes, now);
    if (quota != RejectReason::kNone) {
      st.pub.publish(*st.metrics, st.ledger, now);
      return reject(quota, "window quota exhausted for tenant '" +
                               job.tenant + "'");
    }
  }
  st.metrics->admitted.inc();
  st.pub.publish(*st.metrics, st.ledger, now);
  r.admitted = true;
  r.job_id = next_id_++;
  return r;
}

void JobService::complete(const std::string& tenant, sim::Nanos now) {
  sim::MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.ledger.on_complete();
  it->second.metrics->completed.inc();
  it->second.pub.publish(*it->second.metrics, it->second.ledger, now);
}

void JobService::on_occupancy(const std::string& tenant, sim::Nanos busy_ns,
                              sim::Nanos now) {
  sim::MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.ledger.charge_card_ns(busy_ns, now);
  it->second.pub.publish(*it->second.metrics, it->second.ledger, now);
}

sim::Nanos JobService::throttle_delay(const std::string& tenant,
                                      sim::Nanos now) {
  if (!cfg_.enforce || cfg_.throttle_ns == 0) return 0;
  sim::MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  const TenantSpec& spec = it->second.ledger.spec();
  if (spec.card_ns_per_window == 0) return 0;
  if (it->second.ledger.card_ns_headroom(now) > 0) return 0;
  it->second.metrics->throttled.inc();
  return cfg_.throttle_ns;
}

}  // namespace vphi::service
