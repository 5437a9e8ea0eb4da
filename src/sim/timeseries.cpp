#include "sim/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <variant>

#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace vphi::sim {
namespace {

/// Integer-valued points print as integers (deltas and levels almost
/// always are), everything else as %.6g — both byte-stable.
void append_value(std::string& out, double v) {
  const double r = std::floor(v);
  if (r == v && std::fabs(v) < 9.0e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

std::string series_display_name(const std::string& name,
                                const std::string& label) {
  if (label.empty()) return name;
  return name + "{" + label + "}";
}

}  // namespace

TimelineConfig TimelineConfig::from_env(Nanos default_cadence_ns) {
  TimelineConfig cfg;
  cfg.cadence_ns = default_cadence_ns;
  if (const char* v = std::getenv("VPHI_TIMELINE");
      v != nullptr && v[0] != '\0') {
    const long long parsed = std::strtoll(v, nullptr, 10);
    cfg.cadence_ns = parsed > 0 ? static_cast<Nanos>(parsed) : 0;
  }
  return cfg;
}

void Timeline::begin_run(std::uint32_t shards, Nanos start_ns) {
  shards_ = std::max<std::uint32_t>(1, shards);
  start_ns_ = start_ns;
  end_ns_ = start_ns;
  next_sample_ = start_ns + cfg_.cadence_ns;
  samples_ = 0;
  dropped_ = 0;
  series_.clear();
  series_names_.clear();
  points_.clear();
  cells_.clear();
  if (!enabled()) return;

  // The catalogue is the set of live cells at run start, counters, gauges
  // and histograms each in (name, label) order — deterministic because
  // instrument construction order is (see engine.cpp: main thread, fixed
  // order).
  cells_ = metrics::registry().live_cells();
  auto add = [&](std::uint32_t cell, Source source, const char* suffix,
                 double baseline) {
    const auto& [name, label] = cells_[cell].key;
    Series s;
    s.name = series_display_name(name, label) + suffix;
    s.source = source;
    s.cell = cell;
    s.prev = baseline;
    series_names_.push_back(s.name);
    series_.push_back(std::move(s));
  };
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    const metrics::LiveCell& c = cells_[i];
    if (std::holds_alternative<const metrics::HistogramCell*>(c.cell)) {
      add(i, Source::kHistCount, "#count", c.read.value);
      add(i, Source::kHistP99, "#p99", c.read.p99);
    } else if (std::holds_alternative<const metrics::CounterCell*>(c.cell)) {
      add(i, Source::kCounter, "", c.read.value);
    } else {
      add(i, Source::kGauge, "", c.read.value);
    }
  }
}

std::uint32_t Timeline::add_series(std::string name) {
  Series s;
  s.name = std::move(name);
  s.source = Source::kCustom;
  series_names_.push_back(s.name);
  series_.push_back(std::move(s));
  return static_cast<std::uint32_t>(series_.size() - 1);
}

void Timeline::push(std::uint32_t series, Nanos ts, double value) {
  if (points_.size() == kMaxPoints) {
    ++dropped_;  // counted, never a silent loss
    return;
  }
  points_.push_back(TimelinePoint{ts, series, value});
  if (tracer().enabled()) {
    tracer().record_counter(series_[series].name, ts, value);
  }
}

void Timeline::record(std::uint32_t series, Nanos ts, double value) {
  if (series >= series_.size()) return;
  push(series, ts, value);
}

void Timeline::sample(Nanos now) {
  if (!enabled() || now < next_sample_) return;
  next_sample_ = now + cfg_.cadence_ns;
  ++samples_;
  end_ns_ = now;
  metrics::registry().read_live(cells_);
  // Compare against the baselines and emit points outside the registry
  // lock, in series order (the order is part of the determinism contract).
  for (std::uint32_t i = 0; i < series_.size(); ++i) {
    Series& s = series_[i];
    if (s.source == Source::kCustom) continue;  // fed via record()
    const metrics::LiveRead& r = cells_[s.cell].read;
    if (!r.live) continue;  // every instance retired mid-run
    const double cur = s.source == Source::kHistP99 ? r.p99 : r.value;
    const bool delta_kind =
        s.source == Source::kCounter || s.source == Source::kHistCount;
    if (delta_kind) {
      const double d = cur - s.prev;
      if (d != 0.0) push(i, now, d);
    } else if (cur != s.prev) {
      push(i, now, cur);
    }
    s.prev = cur;
  }
}

void Timeline::finish_run(Nanos end_ns) {
  end_ns_ = std::max(end_ns_, end_ns);
}

std::string Timeline::json() const {
  std::string out = "{\"cadence_ns\":";
  out += std::to_string(cfg_.cadence_ns);
  out += ",\"shards\":";
  out += std::to_string(shards_);
  out += ",\"start_ns\":";
  out += std::to_string(start_ns_);
  out += ",\"end_ns\":";
  out += std::to_string(end_ns_);
  out += ",\"samples\":";
  out += std::to_string(samples_);
  out += ",\"dropped\":";
  out += std::to_string(dropped_);
  out += ",\"series\":[";
  bool first = true;
  for (const std::string& name : series_names_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += '"';
  }
  out += "],\"points\":[";
  first = true;
  for (const TimelinePoint& p : points_) {
    if (!first) out += ',';
    first = false;
    out += '[';
    out += std::to_string(p.ts);
    out += ',';
    out += std::to_string(p.series);
    out += ',';
    append_value(out, p.value);
    out += ']';
  }
  out += "]}";
  return out;
}

}  // namespace vphi::sim
