#include "sim/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

/// Plan-index key: name and label NUL-joined (labels never contain NUL).
std::string plan_key(const std::string& name, const std::string& label) {
  std::string key = name;
  key += '\0';
  key += label;
  return key;
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
  plan_generation_ = ~0ull;  // force a plan rebuild on the first sample
  counter_index_.clear();
  gauge_index_.clear();
  hist_index_.clear();
  if (!enabled()) return;

  // The catalogue is the set of live instruments at run start, walked in
  // (name, label) map order — deterministic because instrument
  // construction order is (see engine.cpp: main thread, fixed order).
  const metrics::Registry::LiveSnapshot snap =
      metrics::registry().live_snapshot();
  auto add = [&](const std::string& name, const std::string& label,
                 Source source, const char* suffix, double baseline) {
    Series s;
    s.name = series_display_name(name, label) + suffix;
    s.reg_name = name;
    s.reg_label = label;
    s.source = source;
    s.prev = baseline;
    series_names_.push_back(s.name);
    series_.push_back(std::move(s));
    return static_cast<std::uint32_t>(series_.size() - 1);
  };
  std::uint32_t hist_slots = 0;
  for (const auto& [key, v] : snap.counters) {
    counter_index_[plan_key(key.first, key.second)] =
        add(key.first, key.second, Source::kCounter, "",
            static_cast<double>(v));
  }
  for (const auto& [key, v] : snap.gauges) {
    gauge_index_[plan_key(key.first, key.second)] =
        add(key.first, key.second, Source::kGauge, "",
            static_cast<double>(v));
  }
  for (const auto& [key, h] : snap.histograms) {
    const std::uint32_t count_idx =
        add(key.first, key.second, Source::kHistCount, "#count",
            static_cast<double>(h.count()));
    const std::uint32_t p99_idx =
        add(key.first, key.second, Source::kHistP99, "#p99",
            h.percentile(0.99));
    const std::uint32_t slot = hist_slots++;
    hist_index_[plan_key(key.first, key.second)] = slot;
    series_hist_slot_.resize(series_.size(), 0);
    series_hist_slot_[count_idx] = slot;
    series_hist_slot_[p99_idx] = slot;
  }
  acc_.assign(series_.size(), 0.0);
  seen_.assign(series_.size(), 0);
  series_hist_slot_.resize(series_.size(), 0);
  hist_scratch_.assign(hist_slots, Histogram{});
  hist_seen_.assign(hist_slots, 0);
}

void Timeline::rebuild_plan(
    std::uint64_t generation,
    const std::vector<metrics::Counter*>& counters,
    const std::vector<metrics::Gauge*>& gauges,
    const std::vector<metrics::LatencyHistogram*>& hists) {
  plan_generation_ = generation;
  plan_counters_.clear();
  plan_gauges_.clear();
  plan_hists_.clear();
  std::string key;
  for (const metrics::Counter* c : counters) {
    key = plan_key(c->name(), c->label());
    if (auto it = counter_index_.find(key); it != counter_index_.end()) {
      plan_counters_.emplace_back(c, it->second);
    }
  }
  for (const metrics::Gauge* g : gauges) {
    key = plan_key(g->name(), g->label());
    if (auto it = gauge_index_.find(key); it != gauge_index_.end()) {
      plan_gauges_.emplace_back(g, it->second);
    }
  }
  for (const metrics::LatencyHistogram* h : hists) {
    key = plan_key(h->name(), h->label());
    if (auto it = hist_index_.find(key); it != hist_index_.end()) {
      plan_hists_.emplace_back(h, it->second);
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
  std::fill(acc_.begin(), acc_.end(), 0.0);
  std::fill(seen_.begin(), seen_.end(), std::uint8_t{0});
  for (Histogram& h : hist_scratch_) h = Histogram{};
  std::fill(hist_seen_.begin(), hist_seen_.end(), std::uint8_t{0});
  // One lock pass over cached instrument pointers — no allocation, no map
  // rebuild. Same-keyed instances sum into one series, exactly like the
  // registry's snapshot aggregation.
  metrics::registry().sample_live(
      [this](std::uint64_t generation,
             const std::vector<metrics::Counter*>& counters,
             const std::vector<metrics::Gauge*>& gauges,
             const std::vector<metrics::LatencyHistogram*>& hists) {
        if (generation != plan_generation_) {
          rebuild_plan(generation, counters, gauges, hists);
        }
        for (const auto& [c, idx] : plan_counters_) {
          acc_[idx] += static_cast<double>(c->value());
          seen_[idx] = 1;
        }
        for (const auto& [g, idx] : plan_gauges_) {
          acc_[idx] += static_cast<double>(g->value());
          seen_[idx] = 1;
        }
        for (const auto& [h, slot] : plan_hists_) {
          hist_scratch_[slot].merge(h->snapshot());
          hist_seen_[slot] = 1;
        }
      });
  // Compare against the baselines and emit points outside the registry
  // lock, in series order (the order is part of the determinism contract).
  for (std::uint32_t i = 0; i < series_.size(); ++i) {
    Series& s = series_[i];
    double cur = s.prev;
    switch (s.source) {
      case Source::kCounter:
      case Source::kGauge:
        if (!seen_[i]) continue;  // every instance retired mid-run
        cur = acc_[i];
        break;
      case Source::kHistCount:
      case Source::kHistP99: {
        const std::uint32_t slot = series_hist_slot_[i];
        if (!hist_seen_[slot]) continue;
        cur = s.source == Source::kHistCount
                  ? static_cast<double>(hist_scratch_[slot].count())
                  : hist_scratch_[slot].percentile(0.99);
        break;
      }
      case Source::kCustom:
        continue;  // fed via record(), not sampled
    }
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
