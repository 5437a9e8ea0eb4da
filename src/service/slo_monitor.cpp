#include "service/slo_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "sim/recorder.hpp"

namespace vphi::service {

SloMonitor::SloMonitor(const SloSpec& spec,
                       std::vector<std::string> tenant_names,
                       std::vector<std::uint32_t> vm_tenant)
    : spec_(spec), vm_tenant_(std::move(vm_tenant)) {
  const double fw =
      static_cast<double>(spec_.period_ns) * spec_.fast_window_frac;
  fast_window_ns_ = std::max<sim::Nanos>(1, static_cast<sim::Nanos>(fw));
  const double ratio = spec_.fast_window_frac > 0.0
                           ? spec_.slow_window_frac / spec_.fast_window_frac
                           : 1.0;
  slow_buckets_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(ratio)));
  next_bucket_end_ = fast_window_ns_;
  cells_.resize(vm_tenant_.size());
  tenants_.reserve(tenant_names.size());
  for (const std::string& name : tenant_names) {
    tenants_.push_back(std::make_unique<TenantState>(name));
    // Bucket 0: the cumulative state at t=0 — all zeros — so the first
    // closed bucket has a baseline to delta against.
    tenants_.back()->history.push_back(Bucket{});
  }
}

void SloMonitor::record_completion(std::uint32_t vm, sim::Nanos latency_ns,
                                   sim::TraceId trace, sim::Nanos now) {
  VmCell& c = cells_[vm];
  ++c.total;
  if (latency_ns > spec_.latency_slo_ns) {
    ++c.bad;
    c.last_bad_trace = trace;
    c.last_bad_ts = now;
  }
}

void SloMonitor::record_reject(std::uint32_t vm, sim::Nanos now) {
  VmCell& c = cells_[vm];
  ++c.total;
  ++c.bad;
  // A reject has no span chain of its own; keep whatever bad trace the VM
  // last saw so the dump still lands near the trouble.
  c.last_bad_ts = now;
}

double SloMonitor::window_burn(const TenantState& t, std::size_t buckets,
                               std::uint64_t* events_out) const {
  const std::size_t n = t.history.size();
  if (n < 2) {
    if (events_out != nullptr) *events_out = 0;
    return 0.0;
  }
  const std::size_t span = std::min(buckets, n - 1);
  const Bucket& newest = t.history[n - 1];
  const Bucket& oldest = t.history[n - 1 - span];
  const std::uint64_t total = newest.total - oldest.total;
  const std::uint64_t bad = newest.bad - oldest.bad;
  if (events_out != nullptr) *events_out = total;
  if (total == 0) return 0.0;
  const double budget = std::max(1e-9, 1.0 - spec_.objective);
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

void SloMonitor::evaluate(sim::Nanos now) {
  while (now >= next_bucket_end_) {
    next_bucket_end_ += fast_window_ns_;

    // Close one fast-window bucket: fold the per-VM cells (quiescent — we
    // run in the barrier completion step) into per-tenant cumulatives.
    std::vector<Bucket> cum(tenants_.size());
    std::vector<sim::TraceId> focus(tenants_.size(), 0);
    std::vector<sim::Nanos> focus_ts(tenants_.size(), 0);
    for (std::size_t vm = 0; vm < cells_.size(); ++vm) {
      const VmCell& c = cells_[vm];
      const std::uint32_t t = vm_tenant_[vm];
      cum[t].total += c.total;
      cum[t].bad += c.bad;
      // Nanos is unsigned: seed the max-scan with 0 and admit the first
      // candidate explicitly (a bad request can legitimately land at ts 0).
      if (c.last_bad_trace != 0 &&
          (focus[t] == 0 || c.last_bad_ts > focus_ts[t])) {
        focus_ts[t] = c.last_bad_ts;
        focus[t] = c.last_bad_trace;
      }
    }

    for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
      TenantState& t = *tenants_[ti];
      t.history.push_back(cum[ti]);
      // Only the trailing slow window matters; keep slow_buckets_ + 1
      // cumulative snapshots so both deltas stay computable.
      if (t.history.size() > slow_buckets_ + 1) {
        t.history.erase(t.history.begin(),
                        t.history.begin() +
                            static_cast<std::ptrdiff_t>(t.history.size() -
                                                        (slow_buckets_ + 1)));
      }
      if (cum[ti].bad > t.bad_reported) {
        t.bad_counter.inc(cum[ti].bad - t.bad_reported);
        t.bad_reported = cum[ti].bad;
      }

      std::uint64_t fast_events = 0;
      t.burn_fast = window_burn(t, 1, &fast_events);
      t.burn_slow = window_burn(t, slow_buckets_, nullptr);

      const bool firing = t.burn_fast >= spec_.burn_threshold &&
                          t.burn_slow >= spec_.burn_threshold &&
                          fast_events >= spec_.min_events;
      if (firing && !t.alerting) {
        t.alerting = true;
        t.alerts_counter.inc();
        sim::flight_recorder().dump(
            "slo burn-rate alert: tenant " + t.name + " burn_fast=" +
                std::to_string(t.burn_fast) + " burn_slow=" +
                std::to_string(t.burn_slow),
            focus[ti]);
      } else if (!firing && t.alerting) {
        t.alerting = false;
      }
    }
  }
}

}  // namespace vphi::service
