// Process-wide metrics registry for the vPHI stack.
//
// Components own their instruments (a Counter is a struct member exactly
// where the old raw std::uint64_t field sat), but every instrument
// self-registers under a stable name on construction and unregisters on
// destruction. The registry can therefore snapshot the whole stack at any
// moment — frontend, backend, ring, fault injector, hypervisor. It is the
// one read path: tests, vphi-top, vphi-stat, bench/perf and the fleet
// timeline all read a count by name and label, and no component keeps a
// getter beside it.
//
// The registry keeps one ordered map per instrument kind, keyed by
// (name, label). A cell holds the instruments alive under its key and what
// retired instances left there: a counter's sum, a merged histogram, a
// gauge's last level. Every read is a walk of those maps: a label's value
// is its cell's, and a name's aggregate is the fold over the name's cells,
// the unlabeled one included. So a per-label sum over one name equals the
// aggregate exactly whenever every instance is labeled; there is no second
// accounting path to drift. Same-keyed live instances (two testbeds that
// both name a VM vm0, say) sum in their cell.
//
// The full catalogue of registered names, their units and their owning
// component lives in docs/OBSERVABILITY.md; treat those names as a stable
// interface (benchmark JSON embeds them).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
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
  /// Zeroed by Registry::reset() between workloads.
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

/// (name, label): the key of one registry cell. Keys order by name first,
/// so one name's cells sit next to each other.
using CellKey = std::pair<std::string, std::string>;

/// Everything the registry holds under one (name, label) key of one
/// instrument kind: the instruments alive under it and what retired
/// instances left. A counter cell reads its retired sum plus its live
/// values, and a histogram cell its retired merge with its live
/// distributions. A gauge cell reads the sum of its live levels, and while
/// none is live, the last level a retired instance held.
///
/// `retired` is allocated when the first instance retires, not with the
/// cell, so it lands above the blocks a fleet run frees. Nothing above
/// them lets glibc trim the heap top after every run_fleet and the next
/// run fault it back in: 20 page faults per fleet_tenants set-up run.
template <typename Instrument, typename V>
struct Cell {
  using Value = V;
  std::vector<Instrument*> live;
  std::unique_ptr<Value> retired;  ///< null until an instance retires
};
using CounterCell = Cell<Counter, std::uint64_t>;
using GaugeCell = Cell<Gauge, std::int64_t>;
using HistogramCell = Cell<LatencyHistogram, Histogram>;

/// What a sampler reads from one cell: its live instruments alone. A
/// retired instance's value can no longer move, so it has no delta.
struct LiveRead {
  bool live = false;   ///< at least one instrument under the key is alive
  double value = 0.0;  ///< counter sum, gauge level or histogram count
  double p99 = 0.0;    ///< histogram cells only
};

/// A sampler's handle on one cell and its latest read. The handle stays
/// valid until reset() drops the cell, and reset() drops only cells that
/// have no live instrument, so call it between workloads only.
struct LiveCell {
  CellKey key;
  std::variant<const CounterCell*, const GaugeCell*, const HistogramCell*>
      cell;
  LiveRead read;
};

/// The process-global registry every instrument registers with.
class Registry {
 public:
  void add(Counter* c) VPHI_EXCLUDES(mu_);
  void remove(Counter* c) VPHI_EXCLUDES(mu_);
  void add(Gauge* g) VPHI_EXCLUDES(mu_);
  void remove(Gauge* g) VPHI_EXCLUDES(mu_);
  void add(LatencyHistogram* h) VPHI_EXCLUDES(mu_);
  // remove and the readers call h->snapshot() under the registry lock;
  // snapshot() is lock-free, so no lock-order edge exists.
  void remove(LatencyHistogram* h) VPHI_EXCLUDES(mu_);

  /// Deterministic JSON snapshot: one object opening with "ts_ns" — the
  /// simulated-clock watermark at the instant of the call, so two
  /// snapshots from one run can be ordered after the fact — followed by
  /// "counters", "gauges" and "histograms" maps (each name's aggregate
  /// over its cells, keys sorted), plus "labeled_counters" /
  /// "labeled_gauges" / "labeled_histograms" maps keyed "name{label}"
  /// holding the labeled cells. Values reflect the instant of the call.
  /// All keys are JSON-escaped.
  std::string snapshot_json() const VPHI_EXCLUDES(mu_);

  /// Sorted names of every cell, live or retired.
  std::vector<std::string> metric_names() const VPHI_EXCLUDES(mu_);

  /// Label dimension signatures of a name's cells, live or retired: each
  /// distinct label shape with the values stripped ("vm=guest0,q=1" ->
  /// "vm=,q="), sorted and de-duplicated. Empty for aggregate-only
  /// instruments. This is the catalogue format docs/OBSERVABILITY.md and
  /// `vphi-stat --list-metrics` share.
  std::vector<std::string> label_dimensions(const std::string& name) const
      VPHI_EXCLUDES(mu_);

  /// A counter name's aggregate, labeled cells included. 0 for unknown
  /// names.
  std::uint64_t counter_value(const std::string& name) const
      VPHI_EXCLUDES(mu_);

  /// A counter name's labeled cells: label -> value. Summing the values
  /// gives counter_value() when every instance is labeled.
  std::map<std::string, std::uint64_t> counter_by_label(
      const std::string& name) const VPHI_EXCLUDES(mu_);
  /// Same for gauges.
  std::map<std::string, std::int64_t> gauge_by_label(
      const std::string& name) const VPHI_EXCLUDES(mu_);
  /// Same for latency histograms.
  std::map<std::string, Histogram> histogram_by_label(
      const std::string& name) const VPHI_EXCLUDES(mu_);

  /// A histogram name's aggregate: every cell's distribution merged.
  Histogram histogram_value(const std::string& name) const VPHI_EXCLUDES(mu_);

  /// Every cell with a live instrument, read once: counter cells, then
  /// gauge cells, then histogram cells, each in key order.
  std::vector<LiveCell> live_cells() const VPHI_EXCLUDES(mu_);

  /// Re-read each of `cells` (from live_cells()) in place under one lock
  /// acquisition, without allocating. Keep the list short-lived: a cell
  /// is valid only until the next reset().
  void read_live(std::vector<LiveCell>& cells) const VPHI_EXCLUDES(mu_);

  /// Test/tooling hook: drop every cell with no live instrument, and zero
  /// the retired part of the rest and their live counters and gauges, so
  /// two identical runs produce identical snapshots and a test fixture
  /// starts from an empty registry. Call it only between workloads, never
  /// during one.
  void reset() VPHI_EXCLUDES(mu_);

 private:
  /// Orders keys as std::pair does, and lets a lookup pass string_views,
  /// so registering under an existing key copies no string.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      const std::string_view an = a.first;
      const std::string_view bn = b.first;
      return an < bn ||
             (an == bn && std::string_view(a.second) < b.second);
    }
  };
  template <typename C>
  using Cells = std::map<CellKey, C, KeyLess>;

  mutable Mutex mu_;
  Cells<CounterCell> counters_ VPHI_GUARDED_BY(mu_);
  Cells<GaugeCell> gauges_ VPHI_GUARDED_BY(mu_);
  Cells<HistogramCell> histograms_ VPHI_GUARDED_BY(mu_);
};

Registry& registry();

}  // namespace vphi::sim::metrics
