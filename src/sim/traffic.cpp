#include "sim/traffic.hpp"

#include <cmath>

namespace vphi::sim {

namespace {
// Exponential draw with the given mean, clamped to [1, 100 * mean] ns so a
// pathological uniform draw can neither stall the clock nor overshoot the
// run. u must be in [0, 1).
Nanos exp_ns(double u, double mean_ns) noexcept {
  if (mean_ns < 1.0) mean_ns = 1.0;
  const double v = -std::log(1.0 - u) * mean_ns;
  const double capped = v > 100.0 * mean_ns ? 100.0 * mean_ns : v;
  return capped < 1.0 ? Nanos{1} : static_cast<Nanos>(capped);
}
}  // namespace

double TrafficStream::rate_at(Nanos t) const noexcept {
  const double t_s = static_cast<double>(t) * 1e-9;
  double rate = cfg_->rate_hz + cfg_->rate_slope_per_s * t_s;
  if (cfg_->burst_period_ns != 0 && cfg_->burst_len_ns != 0 &&
      t % cfg_->burst_period_ns < cfg_->burst_len_ns) {
    rate *= cfg_->burst_factor;
  }
  rate *= cfg_->profile_of(vm_).rate_mult;
  return rate < 1.0 ? 1.0 : rate;
}

Nanos TrafficStream::next_gap(Nanos now) noexcept {
  return exp_ns(rng_.uniform(), 1e9 / rate_at(now));
}

std::uint32_t TrafficStream::next_bytes() noexcept {
  const std::uint32_t lo = cfg_->bytes_min;
  const std::uint32_t hi = cfg_->bytes_max < lo ? lo : cfg_->bytes_max;
  const double drawn = static_cast<double>(rng_.range(lo, hi));
  // Scale the drawn size, not the bounds, so the draw sequence is shared
  // with the unscaled schedule.
  const double scaled = drawn * cfg_->profile_of(vm_).bytes_mult;
  if (scaled < 1.0) return 1;
  const double cap = 4e9;  // stay inside u32
  return static_cast<std::uint32_t>(scaled > cap ? cap : scaled);
}

Nanos TrafficStream::next_think() noexcept {
  const double mult = cfg_->profile_of(vm_).think_mult;
  const double mean = static_cast<double>(cfg_->think_ns);
  return exp_ns(rng_.uniform(), mean * (mult > 0.0 ? mult : 1.0));
}

Nanos TrafficStream::maybe_disconnect() noexcept {
  if (cfg_->churn_disconnect_prob <= 0.0 || cfg_->churn_down_ns == 0) return 0;
  return rng_.uniform() < cfg_->churn_disconnect_prob ? cfg_->churn_down_ns
                                                      : Nanos{0};
}

bool TrafficStream::in_storm(Nanos t) const noexcept {
  if (cfg_->storm_stride == 0 || cfg_->storm_len_ns == 0) return false;
  if (vm_ % cfg_->storm_stride != 0) return false;
  return t >= cfg_->storm_at_ns && t < cfg_->storm_at_ns + cfg_->storm_len_ns;
}

}  // namespace vphi::sim
