#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "sim/actor.hpp"
#include "sim/json.hpp"
#include "sim/shard.hpp"

namespace vphi::sim::metrics {
namespace {

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

template <typename T>
void erase_ptr(std::vector<T*>& v, T* p) {
  v.erase(std::remove(v.begin(), v.end(), p), v.end());
}

/// "name{label}" — the labeled-breakdown key used in snapshot JSON.
void append_labeled_key(std::string& out, const std::string& name,
                        const std::string& label) {
  out += '"';
  append_json_escaped(out, name);
  out += '{';
  append_json_escaped(out, label);
  out += "}\":";
}

void append_histogram_json(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  out += std::to_string(h.count());
  out += ",\"mean\":";
  append_double(out, h.mean());
  out += ",\"p50\":";
  append_double(out, h.percentile(0.5));
  out += ",\"p99\":";
  append_double(out, h.percentile(0.99));
  out += ",\"max\":";
  append_double(out, h.max());
  out += '}';
}

}  // namespace

Counter::Counter(std::string name, std::string label)
    : name_(std::move(name)), label_(std::move(label)) {
  registry().add(this);
}
Counter::~Counter() { registry().remove(this); }

Gauge::Gauge(std::string name, std::string label)
    : name_(std::move(name)), label_(std::move(label)) {
  registry().add(this);
}
Gauge::~Gauge() { registry().remove(this); }

LatencyHistogram::LatencyHistogram(std::string name, std::string label)
    : name_(std::move(name)), label_(std::move(label)) {
  registry().add(this);
}
LatencyHistogram::~LatencyHistogram() { registry().remove(this); }

unsigned LatencyHistogram::stripe_index() noexcept {
  const std::uint32_t shard = current_shard();
  if (shard != kNoShard) return shard % kStripes;
  // Unbound threads get a sticky stripe, round-robin over thread births so
  // concurrent recorders spread out instead of all hammering stripe 0.
  static std::atomic<unsigned> rr{0};
  thread_local const unsigned sticky =
      rr.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return sticky;
}

Histogram LatencyHistogram::snapshot() const {
  std::uint64_t buckets[Histogram::kNumBuckets] = {};
  std::uint64_t total = 0;
  std::uint64_t sum = 0;
  Nanos min_v = ~Nanos{0};
  Nanos max_v = 0;
  for (const Stripe& s : stripes_) {
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const std::uint64_t c = s.buckets[b].load(std::memory_order_relaxed);
      buckets[b] += c;
      total += c;
    }
    sum += s.sum.load(std::memory_order_relaxed);
    min_v = std::min(min_v, s.min.load(std::memory_order_relaxed));
    max_v = std::max(max_v, s.max.load(std::memory_order_relaxed));
  }
  if (total == 0) return Histogram{};
  return Histogram::from_cells(buckets, total, sum, min_v, max_v);
}

void Registry::add(Counter* c) {
  MutexLock lock(mu_);
  ++generation_;
  counters_.push_back(c);
}

void Registry::remove(Counter* c) {
  MutexLock lock(mu_);
  ++generation_;
  erase_ptr(counters_, c);
  retired_counters_[c->name()] += c->value();
  if (!c->label().empty()) {
    retired_labeled_counters_[c->name()][c->label()] += c->value();
  }
}

void Registry::add(Gauge* g) {
  MutexLock lock(mu_);
  ++generation_;
  gauges_.push_back(g);
}

void Registry::remove(Gauge* g) {
  MutexLock lock(mu_);
  ++generation_;
  erase_ptr(gauges_, g);
  retired_gauges_[g->name()] += g->value();
  if (!g->label().empty()) {
    retired_labeled_gauges_[g->name()][g->label()] += g->value();
  }
}

void Registry::add(LatencyHistogram* h) {
  MutexLock lock(mu_);
  ++generation_;
  histograms_.push_back(h);
}

void Registry::remove(LatencyHistogram* h) {
  MutexLock lock(mu_);
  ++generation_;
  erase_ptr(histograms_, h);
  retired_histograms_[h->name()].merge(h->snapshot());
  if (!h->label().empty()) {
    retired_labeled_histograms_[h->name()][h->label()].merge(h->snapshot());
  }
}

void Registry::reset() {
  MutexLock lock(mu_);
  retired_counters_.clear();
  retired_gauges_.clear();
  retired_histograms_.clear();
  retired_labeled_counters_.clear();
  retired_labeled_gauges_.clear();
  retired_labeled_histograms_.clear();
  for (Counter* c : counters_) c->reset();
  for (Gauge* g : gauges_) g->set(0);
}

std::string Registry::snapshot_json() const {
  // Stamp before taking the lock: watermark() is lock-free and the stamp
  // is "the simulated instant the snapshot was requested". Same-seed runs
  // reach the same watermark, so the stamp never breaks bit-identity.
  const Nanos ts = watermark();
  MutexLock lock(mu_);

  std::map<std::string, std::uint64_t> counters = retired_counters_;
  auto labeled_counters = retired_labeled_counters_;
  for (const Counter* c : counters_) {
    counters[c->name()] += c->value();
    if (!c->label().empty()) {
      labeled_counters[c->name()][c->label()] += c->value();
    }
  }

  std::map<std::string, std::int64_t> gauges = retired_gauges_;
  auto labeled_gauges = retired_labeled_gauges_;
  for (const Gauge* g : gauges_) {
    gauges[g->name()] += g->value();
    if (!g->label().empty()) {
      labeled_gauges[g->name()][g->label()] += g->value();
    }
  }

  std::map<std::string, Histogram> hists = retired_histograms_;
  auto labeled_hists = retired_labeled_histograms_;
  for (const LatencyHistogram* h : histograms_) {
    hists[h->name()].merge(h->snapshot());
    if (!h->label().empty()) {
      labeled_hists[h->name()][h->label()].merge(h->snapshot());
    }
  }

  std::string out = "{\"ts_ns\":";
  out += std::to_string(ts);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":";
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":";
    out += std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : hists) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":";
    append_histogram_json(out, h);
  }
  out += "},\"labeled_counters\":{";
  first = true;
  for (const auto& [name, by_label] : labeled_counters) {
    for (const auto& [label, v] : by_label) {
      if (!first) out += ',';
      first = false;
      append_labeled_key(out, name, label);
      out += std::to_string(v);
    }
  }
  out += "},\"labeled_gauges\":{";
  first = true;
  for (const auto& [name, by_label] : labeled_gauges) {
    for (const auto& [label, v] : by_label) {
      if (!first) out += ',';
      first = false;
      append_labeled_key(out, name, label);
      out += std::to_string(v);
    }
  }
  out += "},\"labeled_histograms\":{";
  first = true;
  for (const auto& [name, by_label] : labeled_hists) {
    for (const auto& [label, h] : by_label) {
      if (!first) out += ',';
      first = false;
      append_labeled_key(out, name, label);
      append_histogram_json(out, h);
    }
  }
  out += "}}";
  return out;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  if (auto it = retired_counters_.find(name); it != retired_counters_.end()) {
    total += it->second;
  }
  for (const Counter* c : counters_) {
    if (c->name() == name) total += c->value();
  }
  return total;
}

std::map<std::string, std::uint64_t> Registry::counter_by_label(
    const std::string& name) const {
  MutexLock lock(mu_);
  std::map<std::string, std::uint64_t> out;
  if (auto it = retired_labeled_counters_.find(name);
      it != retired_labeled_counters_.end()) {
    out = it->second;
  }
  for (const Counter* c : counters_) {
    if (c->name() == name && !c->label().empty()) out[c->label()] += c->value();
  }
  return out;
}

std::map<std::string, std::int64_t> Registry::gauge_by_label(
    const std::string& name) const {
  MutexLock lock(mu_);
  std::map<std::string, std::int64_t> out;
  if (auto it = retired_labeled_gauges_.find(name);
      it != retired_labeled_gauges_.end()) {
    out = it->second;
  }
  for (const Gauge* g : gauges_) {
    if (g->name() == name && !g->label().empty()) out[g->label()] += g->value();
  }
  return out;
}

std::map<std::string, Histogram> Registry::histogram_by_label(
    const std::string& name) const {
  MutexLock lock(mu_);
  std::map<std::string, Histogram> out;
  if (auto it = retired_labeled_histograms_.find(name);
      it != retired_labeled_histograms_.end()) {
    out = it->second;
  }
  for (const LatencyHistogram* h : histograms_) {
    if (h->name() == name && !h->label().empty()) {
      out[h->label()].merge(h->snapshot());
    }
  }
  return out;
}

Histogram Registry::histogram_value(const std::string& name) const {
  MutexLock lock(mu_);
  Histogram out;
  if (auto it = retired_histograms_.find(name);
      it != retired_histograms_.end()) {
    out.merge(it->second);
  }
  for (const LatencyHistogram* h : histograms_) {
    if (h->name() == name) out.merge(h->snapshot());
  }
  return out;
}

std::uint64_t Registry::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

void Registry::sample_live(
    const std::function<void(std::uint64_t, const std::vector<Counter*>&,
                             const std::vector<Gauge*>&,
                             const std::vector<LatencyHistogram*>&)>& fn)
    const {
  MutexLock lock(mu_);
  fn(generation_, counters_, gauges_, histograms_);
}

Registry::LiveSnapshot Registry::live_snapshot() const {
  MutexLock lock(mu_);
  LiveSnapshot out;
  for (const Counter* c : counters_) {
    out.counters[{c->name(), c->label()}] += c->value();
  }
  for (const Gauge* g : gauges_) {
    out.gauges[{g->name(), g->label()}] += g->value();
  }
  for (const LatencyHistogram* h : histograms_) {
    out.histograms[{h->name(), h->label()}].merge(h->snapshot());
  }
  return out;
}

namespace {

/// "vm=guest0,q=1" -> "vm=,q=": the label shape with the values stripped.
std::string strip_label_values(const std::string& label) {
  std::string out;
  std::size_t pos = 0;
  while (pos < label.size()) {
    std::size_t comma = label.find(',', pos);
    if (comma == std::string::npos) comma = label.size();
    const std::size_t eq = label.find('=', pos);
    const std::size_t end = (eq != std::string::npos && eq < comma)
                                ? eq + 1  // keep "key="
                                : comma;  // value-less token kept whole
    if (!out.empty()) out += ',';
    out.append(label, pos, end - pos);
    pos = comma + 1;
  }
  return out;
}

}  // namespace

std::vector<std::string> Registry::label_dimensions(
    const std::string& name) const {
  MutexLock lock(mu_);
  std::vector<std::string> dims;
  auto consider = [&](const std::string& label) {
    if (label.empty()) return;
    dims.push_back(strip_label_values(label));
  };
  for (const Counter* c : counters_) {
    if (c->name() == name) consider(c->label());
  }
  for (const Gauge* g : gauges_) {
    if (g->name() == name) consider(g->label());
  }
  for (const LatencyHistogram* h : histograms_) {
    if (h->name() == name) consider(h->label());
  }
  if (auto it = retired_labeled_counters_.find(name);
      it != retired_labeled_counters_.end()) {
    for (const auto& [label, v] : it->second) consider(label);
  }
  if (auto it = retired_labeled_gauges_.find(name);
      it != retired_labeled_gauges_.end()) {
    for (const auto& [label, v] : it->second) consider(label);
  }
  if (auto it = retired_labeled_histograms_.find(name);
      it != retired_labeled_histograms_.end()) {
    for (const auto& [label, h] : it->second) consider(label);
  }
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

std::vector<std::string> Registry::metric_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const Counter* c : counters_) names.push_back(c->name());
  for (const Gauge* g : gauges_) names.push_back(g->name());
  for (const LatencyHistogram* h : histograms_) names.push_back(h->name());
  for (const auto& [name, v] : retired_counters_) names.push_back(name);
  for (const auto& [name, v] : retired_gauges_) names.push_back(name);
  for (const auto& [name, h] : retired_histograms_) names.push_back(name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

Registry& registry() {
  // Leaked: instruments may outlive main().
  static Registry* instance = new Registry();
  return *instance;
}

}  // namespace vphi::sim::metrics
