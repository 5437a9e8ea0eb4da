#include "sim/stats.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>

namespace vphi::sim {

int Histogram::bucket_of(Nanos v) noexcept {
  // bucket = index of top bit + 1
  const int b = v == 0 ? 0 : static_cast<int>(std::bit_width(v));
  return b >= kBuckets ? kBuckets - 1 : b;
}

void Histogram::add(Nanos v) noexcept {
  buckets_[bucket_of(v)] += 1;
  ++total_;
  summary_.add(static_cast<double>(v));
}

Histogram Histogram::from_cells(const std::uint64_t (&buckets)[kNumBuckets],
                                std::uint64_t total, std::uint64_t sum,
                                Nanos min_v, Nanos max_v) noexcept {
  Histogram h;
  if (total == 0) return h;
  for (int b = 0; b < kBuckets; ++b) h.buckets_[b] = buckets[b];
  h.total_ = total;
  h.summary_ = Summary::from_parts(
      total, static_cast<double>(sum) / static_cast<double>(total),
      static_cast<double>(min_v), static_cast<double>(max_v));
  return h;
}

double Histogram::percentile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  // The top of the distribution is known exactly: interpolating inside the
  // last occupied bucket would report its exclusive power-of-two upper
  // bound (a value never observed) instead of the true maximum.
  if (q >= 1.0) return summary_.max();
  const double target = q * static_cast<double>(total_);
  double seen = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double in_bucket = static_cast<double>(buckets_[b]);
    if (seen + in_bucket >= target && in_bucket > 0.0) {
      // Interpolate within [2^(b-1), 2^b), then clamp to the observed
      // range — a single-bucket histogram must never report a quantile
      // outside [min, max].
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b);
      const double frac = (target - seen) / in_bucket;
      return std::clamp(lo + frac * (hi - lo), summary_.min(),
                        summary_.max());
    }
    seen += in_bucket;
  }
  return summary_.max();
}

void FigureTable::add_ratio_column(std::size_t num, std::size_t den,
                                   std::string label) {
  ratios_.push_back({num, den, std::move(label)});
}

void FigureTable::print(std::ostream& os) const {
  os << "== " << title_ << " ==\n";
  if (series_.empty()) return;
  constexpr int kColWidth = 16;
  os << std::left << std::setw(kColWidth) << x_label_;
  for (const auto& s : series_) os << std::setw(kColWidth) << s.name;
  for (const auto& r : ratios_) os << std::setw(kColWidth) << r.label;
  os << "\n";
  const std::size_t rows = series_.front().x.size();
  for (std::size_t i = 0; i < rows; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", series_.front().x[i]);
    os << std::setw(kColWidth) << buf;
    for (const auto& s : series_) {
      const double y = i < s.y.size() ? s.y[i] : 0.0;
      std::snprintf(buf, sizeof(buf), "%.4f", y);
      os << std::setw(kColWidth) << buf;
    }
    for (const auto& r : ratios_) {
      const double den = series_[r.den].y[i];
      const double v = den != 0.0 ? series_[r.num].y[i] / den : 0.0;
      std::snprintf(buf, sizeof(buf), "%.4f", v);
      os << std::setw(kColWidth) << buf;
    }
    os << "\n";
  }
  os.flush();
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB"};
  int unit = 0;
  std::uint64_t v = bytes;
  while (v >= 1024 && v % 1024 == 0 && unit < 3) {
    v /= 1024;
    ++unit;
  }
  return std::to_string(v) + " " + kUnits[unit];
}

}  // namespace vphi::sim
