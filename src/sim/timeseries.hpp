// Fleet timeline: deterministic metric time series on the simulated clock.
//
// A Timeline turns the registry's end-of-run point snapshot into a time
// axis: at a configurable simulated cadence it captures the per-label
// *delta* of every live counter (and histogram count), and the *level* of
// every live gauge (and histogram p99), as (ts, series, value) points. In
// the sharded fleet engine every sample is taken inside the epoch
// barrier's completion step — the one moment per epoch where all shard
// threads are parked and every instrument is quiescent — so samples align
// to engine epochs, values are exact, and the capture is
// happens-before-clean under TSan without a single extra atomic.
//
// Every push runs on one thread at a time (begin_run, the barrier
// completion step, after join), so points are appended to one vector in
// emission order: a sample emits its points in series order, and the
// engine records its custom series (the self-profiling phase timers,
// registered after the catalogue) after each sample. The stream is
// therefore strictly ordered by (ts, series), and same-seed runs emit
// bit-identical timelines. At most kMaxPoints are stored; later points
// are counted in dropped(), never silently lost.
//
// The Timeline is a **pure observer**: it never advances an actor's clock,
// registers no instruments of its own, and a run with sampling on is
// bit-identical — FleetResult and metrics snapshot — to the same run with
// sampling off. When the tracer is enabled, each stored point is also
// forwarded as a Perfetto counter-track sample so timelines render beside
// span tracks.
//
// Env knob: VPHI_TIMELINE=<ns> sets the cadence (0 disables sampling;
// unset keeps the caller's default).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace vphi::sim {

namespace metrics {
class Counter;
class Gauge;
class LatencyHistogram;
}  // namespace metrics

struct TimelineConfig {
  /// Simulated nanoseconds between samples; 0 disables the sampler.
  Nanos cadence_ns = 0;

  /// Apply the VPHI_TIMELINE env override on top of `default_cadence_ns`:
  /// unset/empty keeps the default, "0" disables, any other integer is the
  /// cadence in simulated ns.
  static TimelineConfig from_env(Nanos default_cadence_ns);
};

/// One sampled point. `value` is a delta for counter-kind series and a
/// level for gauge-kind series.
struct TimelinePoint {
  Nanos ts = 0;
  std::uint32_t series = 0;  ///< index into series_names()
  double value = 0.0;
};

class Timeline {
 public:
  /// Points stored per run. A fleet workload stores about 1.4k, or 241k
  /// when VPHI_ENGINE_PROFILE adds a point per shard phase per epoch.
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 19;

  explicit Timeline(TimelineConfig cfg = {}) : cfg_(cfg) {}

  bool enabled() const noexcept { return cfg_.cadence_ns > 0; }
  const TimelineConfig& config() const noexcept { return cfg_; }

  /// Build the series catalogue from the live registry (capturing each
  /// series' start-of-run baseline for deltas) and clear the points. Call
  /// on the main thread before engine threads spawn; every instrument
  /// alive at this point is sampled, later arrivals are not.
  void begin_run(std::uint32_t shards, Nanos start_ns);

  /// Register one custom series (engine self-profiling phase timers).
  /// Points carry raw record() values, no delta baseline. Returns the
  /// series index for record(). Single-threaded phases only.
  std::uint32_t add_series(std::string name);

  /// Push one point for a custom series. Barrier completion step (or any
  /// single-threaded phase) only, after that epoch's sample() and in
  /// series order, so the stream stays ordered by (ts, series).
  void record(std::uint32_t series, Nanos ts, double value);

  /// Capture one sample of every registry-backed series if `now` reached
  /// the next cadence boundary. Must run while all writer threads are
  /// quiescent (the engine calls it from the barrier completion step).
  /// Unchanged series emit no point, so idle stretches cost nothing.
  void sample(Nanos now);

  /// Close the run at `end_ns`. Main thread, after engine threads join.
  void finish_run(Nanos end_ns);

  const std::vector<std::string>& series_names() const noexcept {
    return series_names_;
  }
  const std::vector<TimelinePoint>& points() const noexcept {
    return points_;
  }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t samples_taken() const noexcept { return samples_; }

  /// The timeline as one JSON object:
  ///   {"cadence_ns":..,"shards":..,"start_ns":..,"end_ns":..,
  ///    "samples":..,"dropped":..,"series":[...],
  ///    "points":[[ts,series,value],...]}
  /// Byte-identical across same-seed runs.
  std::string json() const;

 private:
  /// What a series reads from the registry (kCustom reads nothing — its
  /// points arrive via record()).
  enum class Source : std::uint8_t {
    kCounter,    ///< delta of a counter total
    kGauge,      ///< gauge level
    kHistCount,  ///< delta of a histogram's sample count
    kHistP99,    ///< level of a histogram's p99
    kCustom,
  };

  struct Series {
    std::string name;  ///< "vphi.x{label}" (+ "#count"/"#p99" for hists)
    std::string reg_name;   ///< registry lookup key
    std::string reg_label;  ///< registry lookup key ("" = aggregate)
    Source source = Source::kCustom;
    double prev = 0.0;  ///< last sampled value (delta baseline / level)
  };

  void push(std::uint32_t series, Nanos ts, double value);
  /// Rebuild the instrument-pointer sampling plan from the live lists.
  /// Called (rarely) from inside Registry::sample_live when the registry
  /// generation moved; the registry lock is held, so the pointers stay
  /// valid for the rest of the sample.
  void rebuild_plan(std::uint64_t generation,
                    const std::vector<metrics::Counter*>& counters,
                    const std::vector<metrics::Gauge*>& gauges,
                    const std::vector<metrics::LatencyHistogram*>& hists);

  TimelineConfig cfg_;
  std::uint32_t shards_ = 1;
  Nanos start_ns_ = 0;
  Nanos end_ns_ = 0;
  Nanos next_sample_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Series> series_;
  std::vector<std::string> series_names_;
  std::vector<TimelinePoint> points_;

  // Sampling plan: registry-map lookups and per-sample allocations are too
  // expensive at fleet scale (thousands of labeled instruments), so each
  // sample reads cached instrument pointers directly. The plan is keyed on
  // the registry generation — any registration/retirement invalidates it —
  // and pointers are only dereferenced under the registry lock (inside
  // Registry::sample_live), which blocks retirement.
  std::uint64_t plan_generation_ = ~0ull;
  std::unordered_map<std::string, std::uint32_t> counter_index_;
  std::unordered_map<std::string, std::uint32_t> gauge_index_;
  std::unordered_map<std::string, std::uint32_t> hist_index_;  ///< -> slot
  std::vector<std::pair<const metrics::Counter*, std::uint32_t>>
      plan_counters_;
  std::vector<std::pair<const metrics::Gauge*, std::uint32_t>> plan_gauges_;
  std::vector<std::pair<const metrics::LatencyHistogram*, std::uint32_t>>
      plan_hists_;
  /// Per-series accumulators, zeroed per sample; seen_ marks series at
  /// least one live instrument fed (an untouched series keeps its prev —
  /// a retired instrument must not read as a drop to zero).
  std::vector<double> acc_;
  std::vector<std::uint8_t> seen_;
  /// Histogram series pairs (#count at slot series, #p99 right after it)
  /// share a merged scratch histogram per slot.
  std::vector<std::uint32_t> series_hist_slot_;
  std::vector<Histogram> hist_scratch_;
  std::vector<std::uint8_t> hist_seen_;
};

}  // namespace vphi::sim
