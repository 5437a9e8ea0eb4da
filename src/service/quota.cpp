#include "service/quota.hpp"

#include "sim/fault.hpp"

namespace vphi::service {

void QuotaLedger::roll(sim::Nanos now) {
  if (spec_.window_ns == 0) return;  // degenerate: one everlasting window
  if (now < window_start_ + spec_.window_ns) return;
  // Jump straight to the window containing `now` — idle tenants must not
  // pay O(idle windows).
  const sim::Nanos elapsed = now - window_start_;
  window_start_ += (elapsed / spec_.window_ns) * spec_.window_ns;
  bytes_used_ = 0;
  card_ns_used_ = 0;
}

RejectReason QuotaLedger::try_admit(std::uint64_t bytes, sim::Nanos now) {
  roll(now);
  // The injector models an operator mis-sizing a window or an accounting
  // bug: the site reports this window as spent regardless of real usage.
  if (sim::fault_injector().should_fire(sim::FaultSite::kQuotaExhaust)) {
    return RejectReason::kQuotaBytes;
  }
  if (spec_.bytes_per_window != 0 &&
      bytes_used_ + bytes > spec_.bytes_per_window) {
    return RejectReason::kQuotaBytes;
  }
  if (spec_.card_ns_per_window != 0 &&
      card_ns_used_ >= static_cast<std::uint64_t>(spec_.card_ns_per_window)) {
    return RejectReason::kQuotaCardNs;
  }
  if (spec_.max_inflight != 0 && inflight_ >= spec_.max_inflight) {
    return RejectReason::kQuotaInflight;
  }
  bytes_used_ += bytes;
  ++inflight_;
  return RejectReason::kNone;
}

void QuotaLedger::on_complete() {
  if (inflight_ > 0) --inflight_;
}

void QuotaLedger::charge_card_ns(sim::Nanos busy, sim::Nanos now) {
  roll(now);
  card_ns_used_ += static_cast<std::uint64_t>(busy);
}

std::uint64_t QuotaLedger::bytes_headroom(sim::Nanos now) {
  roll(now);
  if (spec_.bytes_per_window == 0) return kUnlimitedBytes;
  return bytes_used_ >= spec_.bytes_per_window
             ? 0
             : spec_.bytes_per_window - bytes_used_;
}

sim::Nanos QuotaLedger::card_ns_headroom(sim::Nanos now) {
  roll(now);
  if (spec_.card_ns_per_window == 0) return sim::Nanos{~std::uint64_t{0} >> 1};
  const auto limit = static_cast<std::uint64_t>(spec_.card_ns_per_window);
  return card_ns_used_ >= limit
             ? 0
             : static_cast<sim::Nanos>(limit - card_ns_used_);
}

sim::Nanos QuotaLedger::window_refill_ns(sim::Nanos now) const {
  if (spec_.window_ns == 0) return now;
  if (now < window_start_) return window_start_;
  const sim::Nanos elapsed = now - window_start_;
  return window_start_ + (elapsed / spec_.window_ns + 1) * spec_.window_ns;
}

}  // namespace vphi::service
