// Process-wide metrics registry for the vPHI stack.
//
// Components own their instruments (a Counter is a struct member exactly
// where the old raw std::uint64_t field sat), but every instrument
// self-registers under a stable name on construction and unregisters on
// destruction. The registry can therefore snapshot the whole stack at any
// moment — frontend, backend, ring, fault injector, hypervisor. It is the
// one read path: tests, vphi-top, vphi-stat and bench/perf all read a
// count by name and label, and no component keeps a getter beside it.
// Same-named instruments from different instances (one Virtqueue per VM,
// say) are summed in the aggregate; the label tells one instance's count
// from another's.
//
// Labels add a tenant dimension on top of that: an instrument constructed
// with a label ("vm=vm0") still contributes to the aggregate under its
// base name — so existing names, sums and tests are untouched — and
// *additionally* shows up in the labeled breakdown maps. Because the
// labeled and aggregate views read the very same atomics, a per-label sum
// over one name always equals the aggregate exactly; there is no second
// accounting path to drift.
//
// The full catalogue of registered names, their units and their owning
// component lives in docs/OBSERVABILITY.md; treat those names as a stable
// interface (benchmark JSON embeds them).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::sim::metrics {

/// Monotonic counter (u64, relaxed atomics; overflow is the caller's
/// problem at ~10^19 events).
class Counter {
 public:
  explicit Counter(std::string name, std::string label = {});
  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t d = 1) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// For counter owners with an explicit reset surface (fault injector).
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

  const std::string& name() const noexcept { return name_; }
  /// Tenant dimension ("vm=vm0"); empty = aggregate-only instrument.
  const std::string& label() const noexcept { return label_; }

 private:
  std::string name_;
  std::string label_;
  std::atomic<std::uint64_t> v_{0};
};

/// Signed point-in-time value (queue depths, parked buffers).
class Gauge {
 public:
  explicit Gauge(std::string name, std::string label = {});
  ~Gauge();

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  const std::string& name() const noexcept { return name_; }
  const std::string& label() const noexcept { return label_; }

 private:
  std::string name_;
  std::string label_;
  std::atomic<std::int64_t> v_{0};
};

/// Latency distribution under a registered name. record() is off the
/// simulated clock (observability never charges the workload) and
/// *lock-free*: it lands in per-stripe relaxed atomic cells (log2 bucket
/// counts, an integer sum, CAS min/max), so the request hot path never
/// takes a mutex — shard threads map to stripes by shard index, unbound
/// threads by a sticky per-thread assignment. snapshot() folds the stripes
/// in fixed order into a sim::Histogram.
///
/// Every cell is order-independent (integer adds commute; min/max CAS
/// converge to the same value under any interleaving), so two runs that
/// record the same multiset of values produce bit-identical snapshots no
/// matter how threads interleaved — the property docs/DETERMINISM.md
/// leans on. The trade against the old mutex+Histogram path: a snapshot
/// taken *while* records are in flight may transiently see a count/sum
/// skew of the in-flight records, and the second moment is not tracked
/// (neither Histogram nor Summary tracks one).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::string name, std::string label = {});
  ~LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(Nanos v) noexcept {
    Stripe& s = stripes_[stripe_index()];
    s.buckets[Histogram::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    atomic_min(s.min, v);
    atomic_max(s.max, v);
  }

  /// Deterministic fold of every stripe into a value-type Histogram.
  Histogram snapshot() const;

  const std::string& name() const noexcept { return name_; }
  const std::string& label() const noexcept { return label_; }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> buckets[Histogram::kNumBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<Nanos> min{~Nanos{0}};
    std::atomic<Nanos> max{0};
  };
  static constexpr unsigned kStripes = 4;

  static unsigned stripe_index() noexcept;
  static void atomic_min(std::atomic<Nanos>& a, Nanos v) noexcept {
    Nanos cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<Nanos>& a, Nanos v) noexcept {
    Nanos cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  std::string label_;
  Stripe stripes_[kStripes];
};

/// The process-global registry every instrument registers with.
class Registry {
 public:
  /// One-pass read of every *live* instrument, keyed (name, label) with
  /// same-keyed instances summed / histograms merged. This is the timeline
  /// sampler's read path: one lock acquisition per sample instead of one
  /// per series. Retired instruments are excluded — their values can no
  /// longer change, so they have no deltas to sample.
  struct LiveSnapshot {
    std::map<std::pair<std::string, std::string>, std::uint64_t> counters;
    std::map<std::pair<std::string, std::string>, std::int64_t> gauges;
    std::map<std::pair<std::string, std::string>, Histogram> histograms;
  };
  LiveSnapshot live_snapshot() const VPHI_EXCLUDES(mu_);

  /// Label dimension signatures seen for a name, live or retired: each
  /// distinct label shape with the values stripped ("vm=guest0,q=1" ->
  /// "vm=,q="), sorted and de-duplicated. Empty for aggregate-only
  /// instruments. This is the catalogue format docs/OBSERVABILITY.md and
  /// `vphi-stat --list-metrics` share.
  std::vector<std::string> label_dimensions(const std::string& name) const
      VPHI_EXCLUDES(mu_);

  void add(Counter* c) VPHI_EXCLUDES(mu_);
  void remove(Counter* c) VPHI_EXCLUDES(mu_);
  void add(Gauge* g) VPHI_EXCLUDES(mu_);
  void remove(Gauge* g) VPHI_EXCLUDES(mu_);
  void add(LatencyHistogram* h) VPHI_EXCLUDES(mu_);
  // remove and the snapshot readers call h->snapshot() under the registry
  // lock; snapshot() is lock-free, so no lock-order edge exists.
  void remove(LatencyHistogram* h) VPHI_EXCLUDES(mu_);

  /// Deterministic JSON snapshot: one object opening with "ts_ns" — the
  /// simulated-clock watermark at the instant of the call, so two
  /// snapshots from one run can be ordered after the fact — followed by
  /// "counters", "gauges" and "histograms" maps (aggregates over every
  /// instance, labeled or not, keys sorted, same-named live instruments
  /// summed / histograms merged), plus "labeled_counters" /
  /// "labeled_gauges" / "labeled_histograms" maps keyed "name{label}"
  /// holding the per-tenant breakdown of labeled instruments. Values
  /// reflect the instant of the call. All keys are JSON-escaped.
  std::string snapshot_json() const VPHI_EXCLUDES(mu_);

  /// Sorted, de-duplicated names of every instrument ever seen (live or
  /// retired).
  std::vector<std::string> metric_names() const VPHI_EXCLUDES(mu_);

  /// Current total for a counter name: live instruments summed plus the
  /// retired aggregate, labeled instances included. 0 for unknown names.
  std::uint64_t counter_value(const std::string& name) const
      VPHI_EXCLUDES(mu_);

  /// Per-label breakdown of a counter name: label -> total (live +
  /// retired). Only labeled instruments contribute; summing the values
  /// gives the counter_value() aggregate when every instance is labeled.
  std::map<std::string, std::uint64_t> counter_by_label(
      const std::string& name) const VPHI_EXCLUDES(mu_);
  /// Same for gauges.
  std::map<std::string, std::int64_t> gauge_by_label(
      const std::string& name) const VPHI_EXCLUDES(mu_);
  /// Same for latency histograms (merged per label).
  std::map<std::string, Histogram> histogram_by_label(
      const std::string& name) const VPHI_EXCLUDES(mu_);

  /// Merged distribution for a histogram name across every instance (live
  /// + retired, labeled or not).
  Histogram histogram_value(const std::string& name) const VPHI_EXCLUDES(mu_);

  /// Allocation-free sampling read path: runs `fn` once under the registry
  /// lock with the live instrument lists and the current generation, which
  /// every registration or retirement bumps: a pointer set captured against
  /// an unchanged generation is still exactly the live set, so the timeline
  /// sampler caches its sampling plan on it.
  /// Instrument pointers are valid only while `fn` runs (the lock blocks
  /// retirement). Keep `fn` short — every registration waits behind it —
  /// and never register/retire instruments or re-enter the registry from
  /// inside it.
  void sample_live(
      const std::function<void(std::uint64_t generation,
                               const std::vector<Counter*>& counters,
                               const std::vector<Gauge*>& gauges,
                               const std::vector<LatencyHistogram*>& hists)>&
          fn) const VPHI_EXCLUDES(mu_);

  /// Test/tooling hook: drop the retired aggregates and zero every live
  /// counter and gauge, so two identical runs produce identical snapshots
  /// and a test fixture starts from an empty registry. Call it only
  /// between workloads, never during one.
  void reset() VPHI_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<Counter*> counters_ VPHI_GUARDED_BY(mu_);
  std::vector<Gauge*> gauges_ VPHI_GUARDED_BY(mu_);
  std::vector<LatencyHistogram*> histograms_ VPHI_GUARDED_BY(mu_);
  std::uint64_t generation_ VPHI_GUARDED_BY(mu_) = 0;
  // Final values of destroyed instruments, folded in by name so snapshots
  // taken after a Testbed tears down (bench JSON writers) still cover the
  // whole run. Labeled instruments fold into both the aggregate map and
  // the name -> label -> value breakdown.
  std::map<std::string, std::uint64_t> retired_counters_
      VPHI_GUARDED_BY(mu_);
  std::map<std::string, std::int64_t> retired_gauges_ VPHI_GUARDED_BY(mu_);
  std::map<std::string, Histogram> retired_histograms_ VPHI_GUARDED_BY(mu_);
  std::map<std::string, std::map<std::string, std::uint64_t>>
      retired_labeled_counters_ VPHI_GUARDED_BY(mu_);
  std::map<std::string, std::map<std::string, std::int64_t>>
      retired_labeled_gauges_ VPHI_GUARDED_BY(mu_);
  std::map<std::string, std::map<std::string, Histogram>>
      retired_labeled_histograms_ VPHI_GUARDED_BY(mu_);
};

Registry& registry();

}  // namespace vphi::sim::metrics
