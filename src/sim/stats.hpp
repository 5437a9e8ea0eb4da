// Measurement containers used by tests and benchmark harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace vphi::sim {

/// Online mean/min/max accumulator.
class Summary {
 public:
  /// Reconstitute a summary from order-independent parts (e.g. the
  /// integer sum/count/min/max cells a lock-free histogram accumulates).
  /// mean/min/max/count are exact.
  static Summary from_parts(std::uint64_t n, double mean, double min_v,
                            double max_v) noexcept {
    Summary s;
    if (n == 0) return s;
    s.n_ = n;
    s.mean_ = mean;
    s.min_ = min_v;
    s.max_ = max_v;
    return s;
  }

  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  /// Fold another accumulator in, as if every sample had been add()ed
  /// here.
  void merge(const Summary& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const std::uint64_t n = n_ + o.n_;
    mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    n_ = n;
  }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log2-bucketed latency histogram (ns), with percentile estimation by
/// linear interpolation within a bucket.
class Histogram {
 public:
  /// Bucket layout is part of the public contract so lock-free recorders
  /// (sim::metrics::LatencyHistogram) can accumulate per-stripe atomic
  /// cells with the exact same mapping and rebuild a Histogram at
  /// snapshot time.
  static constexpr int kNumBuckets = 64;

  /// Index of the log2 bucket `v` lands in (same mapping as add()).
  static int bucket_of(Nanos v) noexcept;

  /// Rebuild from raw cells: per-bucket counts, total count, integer sum
  /// of all recorded values, and the observed min/max. The mean is
  /// sum/total (order-independent); the second moment is lost (see
  /// Summary::from_parts).
  static Histogram from_cells(const std::uint64_t (&buckets)[kNumBuckets],
                              std::uint64_t total, std::uint64_t sum,
                              Nanos min_v, Nanos max_v) noexcept;

  void add(Nanos v) noexcept;
  /// Bucket-wise fold of another histogram.
  void merge(const Histogram& o) noexcept {
    for (int b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
    total_ += o.total_;
    summary_.merge(o.summary_);
  }
  std::uint64_t count() const noexcept { return total_; }
  /// q in [0,1]; returns 0 for an empty histogram. Interpolated values are
  /// clamped into [min(), max()], and q = 1.0 is exactly max() — never the
  /// bucket's exclusive power-of-two upper bound.
  double percentile(double q) const noexcept;
  double mean() const noexcept { return summary_.mean(); }
  double min() const noexcept { return summary_.min(); }
  double max() const noexcept { return summary_.max(); }

 private:
  static constexpr int kBuckets = kNumBuckets;
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
  Summary summary_;
};

/// A named (x, y) series — one line of a paper figure.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;

  void add(double xv, double yv) {
    x.push_back(xv);
    y.push_back(yv);
  }
};

/// Renders series as an aligned text table (rows = x values, one column per
/// series), the way the bench binaries print each reproduced figure.
class FigureTable {
 public:
  FigureTable(std::string title, std::string x_label)
      : title_(std::move(title)), x_label_(std::move(x_label)) {}

  void add_series(Series s) { series_.push_back(std::move(s)); }
  /// Optional extra column computed as series[1]/series[0] etc.
  void add_ratio_column(std::size_t num, std::size_t den, std::string label);
  void print(std::ostream& os) const;

 private:
  struct Ratio {
    std::size_t num, den;
    std::string label;
  };
  std::string title_;
  std::string x_label_;
  std::vector<Series> series_;
  std::vector<Ratio> ratios_;
};

/// Pretty-print a byte count ("4 KiB", "64 MiB", "1 B").
std::string format_bytes(std::uint64_t bytes);

/// Jain's fairness index over per-tenant allocations x_i:
/// J = (sum x_i)^2 / (n * sum x_i^2). 1.0 = perfectly fair shares,
/// 1/n = one tenant hogging everything. Degenerate inputs (empty, or all
/// shares zero) report 1.0 — nothing was allocated unfairly.
inline double jain_index(const std::vector<double>& xs) noexcept {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace vphi::sim
