#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

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

/// "name{label}" — the labeled-breakdown key used in snapshot JSON.
void append_labeled_key(std::string& out, const std::string& name,
                        const std::string& label) {
  out += '"';
  append_json_escaped(out, name);
  out += '{';
  append_json_escaped(out, label);
  out += "}\":";
}

template <typename T>
void append_value(std::string& out, T v) {
  out += std::to_string(v);
}

void append_value(std::string& out, const Histogram& h) {
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

std::uint64_t read(const Counter& c) { return c.value(); }
std::int64_t read(const Gauge& g) { return g.value(); }
Histogram read(const LatencyHistogram& h) { return h.snapshot(); }

template <typename T>
void fold(T& acc, const T& v) {
  acc += v;
}
void fold(Histogram& acc, const Histogram& v) { acc.merge(v); }

/// `v` with every live instrument of the cell folded in, in registration
/// order.
template <typename C>
typename C::Value fold_live(typename C::Value v, const C& cell) {
  for (const auto* i : cell.live) fold(v, read(*i));
  return v;
}

/// What a reader sees under a cell's key (see Cell).
template <typename C>
typename C::Value value_of(const C& cell) {
  return fold_live(cell.retired ? *cell.retired : typename C::Value{}, cell);
}
std::int64_t value_of(const GaugeCell& cell) {
  if (cell.live.empty() && cell.retired) return *cell.retired;
  return fold_live(std::int64_t{0}, cell);
}

template <typename V, typename Instrument>
void retire_into(std::unique_ptr<V>& retired, const Instrument& i) {
  if (!retired) retired = std::make_unique<V>();
  fold(*retired, read(i));
}
// A level is not a sum: a retired gauge leaves its last level.
void retire_into(std::unique_ptr<std::int64_t>& retired, const Gauge& g) {
  if (!retired) retired = std::make_unique<std::int64_t>();
  *retired = g.value();
}

using KeyView = std::pair<std::string_view, std::string_view>;

template <typename Cells, typename Instrument>
void enlist(Cells& cells, Instrument* i) {
  auto it = cells.find(KeyView{i->name(), i->label()});
  if (it == cells.end()) it = cells.try_emplace({i->name(), i->label()}).first;
  it->second.live.push_back(i);
}

template <typename Cells, typename Instrument>
void retire(Cells& cells, Instrument* i) {
  auto& cell = cells.find(KeyView{i->name(), i->label()})->second;
  std::erase(cell.live, i);
  retire_into(cell.retired, *i);
}

/// Calls fn(label, cell) for each of `name`'s cells, in label order.
template <typename Cells, typename Fn>
void for_each_cell(const Cells& cells, std::string_view name, Fn fn) {
  for (auto it = cells.lower_bound(KeyView{name, {}});
       it != cells.end() && it->first.first == name; ++it) {
    fn(it->first.second, it->second);
  }
}

template <typename Cells>
auto total_of(const Cells& cells, std::string_view name) {
  typename Cells::mapped_type::Value total{};
  for_each_cell(cells, name, [&](const std::string&, const auto& cell) {
    fold(total, value_of(cell));
  });
  return total;
}

template <typename Cells>
auto by_label(const Cells& cells, std::string_view name) {
  std::map<std::string, typename Cells::mapped_type::Value> out;
  for_each_cell(cells, name, [&](const std::string& label, const auto& cell) {
    if (!label.empty()) out.emplace(label, value_of(cell));
  });
  return out;
}

/// "name":aggregate for every name, in name order.
template <typename Cells>
void append_totals(std::string& out, const Cells& cells) {
  bool first = true;
  for (auto it = cells.begin(); it != cells.end();) {
    const std::string& name = it->first.first;
    typename Cells::mapped_type::Value total{};
    for (; it != cells.end() && it->first.first == name; ++it) {
      fold(total, value_of(it->second));
    }
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":";
    append_value(out, total);
  }
}

/// "name{label}":value for every labeled cell, in key order.
template <typename Cells>
void append_labeled(std::string& out, const Cells& cells) {
  bool first = true;
  for (const auto& [key, cell] : cells) {
    if (key.second.empty()) continue;
    if (!first) out += ',';
    first = false;
    append_labeled_key(out, key.first, key.second);
    append_value(out, value_of(cell));
  }
}

template <typename C>
LiveRead live_read(const C& cell) {
  return {!cell.live.empty(),
          static_cast<double>(fold_live(typename C::Value{}, cell)), 0.0};
}
LiveRead live_read(const HistogramCell& cell) {
  const Histogram h = fold_live(Histogram{}, cell);
  return {!cell.live.empty(), static_cast<double>(h.count()),
          h.percentile(0.99)};
}

/// Drops the cells with no live instrument and clears the rest's retired
/// part; a cell with a live instrument keeps its node, so a sampler's
/// handle on it stays valid.
template <typename Cells>
void drop_retired(Cells& cells) {
  std::erase_if(cells, [](const auto& kv) { return kv.second.live.empty(); });
  for (auto& [key, cell] : cells) cell.retired = {};
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
  enlist(counters_, c);
}

void Registry::remove(Counter* c) {
  MutexLock lock(mu_);
  retire(counters_, c);
}

void Registry::add(Gauge* g) {
  MutexLock lock(mu_);
  enlist(gauges_, g);
}

void Registry::remove(Gauge* g) {
  MutexLock lock(mu_);
  retire(gauges_, g);
}

void Registry::add(LatencyHistogram* h) {
  MutexLock lock(mu_);
  enlist(histograms_, h);
}

void Registry::remove(LatencyHistogram* h) {
  MutexLock lock(mu_);
  retire(histograms_, h);
}

void Registry::reset() {
  MutexLock lock(mu_);
  drop_retired(counters_);
  drop_retired(gauges_);
  drop_retired(histograms_);
  for (auto& [key, cell] : counters_) {
    for (Counter* c : cell.live) c->reset();
  }
  for (auto& [key, cell] : gauges_) {
    for (Gauge* g : cell.live) g->set(0);
  }
}

std::string Registry::snapshot_json() const {
  // Stamp before taking the lock: watermark() is lock-free and the stamp
  // is "the simulated instant the snapshot was requested". Same-seed runs
  // reach the same watermark, so the stamp never breaks bit-identity.
  const Nanos ts = watermark();
  MutexLock lock(mu_);
  std::string out = "{\"ts_ns\":";
  out += std::to_string(ts);
  out += ",\"counters\":{";
  append_totals(out, counters_);
  out += "},\"gauges\":{";
  append_totals(out, gauges_);
  out += "},\"histograms\":{";
  append_totals(out, histograms_);
  out += "},\"labeled_counters\":{";
  append_labeled(out, counters_);
  out += "},\"labeled_gauges\":{";
  append_labeled(out, gauges_);
  out += "},\"labeled_histograms\":{";
  append_labeled(out, histograms_);
  out += "}}";
  return out;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  MutexLock lock(mu_);
  return total_of(counters_, name);
}

std::map<std::string, std::uint64_t> Registry::counter_by_label(
    const std::string& name) const {
  MutexLock lock(mu_);
  return by_label(counters_, name);
}

std::map<std::string, std::int64_t> Registry::gauge_by_label(
    const std::string& name) const {
  MutexLock lock(mu_);
  return by_label(gauges_, name);
}

std::map<std::string, Histogram> Registry::histogram_by_label(
    const std::string& name) const {
  MutexLock lock(mu_);
  return by_label(histograms_, name);
}

Histogram Registry::histogram_value(const std::string& name) const {
  MutexLock lock(mu_);
  return total_of(histograms_, name);
}

std::vector<LiveCell> Registry::live_cells() const {
  MutexLock lock(mu_);
  std::vector<LiveCell> out;
  auto collect = [&](const auto& cells) {
    for (const auto& [key, cell] : cells) {
      if (!cell.live.empty()) out.push_back({key, &cell, live_read(cell)});
    }
  };
  collect(counters_);
  collect(gauges_);
  collect(histograms_);
  return out;
}

void Registry::read_live(std::vector<LiveCell>& cells) const {
  MutexLock lock(mu_);
  for (LiveCell& c : cells) {
    c.read = std::visit([](const auto* cell) { return live_read(*cell); },
                        c.cell);
  }
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
  auto collect = [&](const auto& cells) {
    for_each_cell(cells, name, [&](const std::string& label, const auto&) {
      if (!label.empty()) dims.push_back(strip_label_values(label));
    });
  };
  collect(counters_);
  collect(gauges_);
  collect(histograms_);
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

std::vector<std::string> Registry::metric_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  auto collect = [&](const auto& cells) {
    for (const auto& [key, cell] : cells) {
      if (names.empty() || names.back() != key.first) {
        names.push_back(key.first);
      }
    }
  };
  collect(counters_);
  collect(gauges_);
  collect(histograms_);
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
