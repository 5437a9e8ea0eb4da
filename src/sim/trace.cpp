#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sim/actor.hpp"
#include "sim/json.hpp"

namespace vphi::sim {
namespace {

// The op span the calling thread is currently inside (see TraceOpScope).
thread_local TraceId t_current_op = 0;

// Chrome-trace track per component, in pipeline-reading order. Counter
// tracks (timeline series) render on their own tid after the span tracks.
constexpr int kTidGuestOps = 1;
constexpr int kTidFrontend = 2;
constexpr int kTidRing = 3;
constexpr int kTidBackend = 4;
constexpr int kTidIrq = 5;
constexpr int kTidCounters = 6;

/// splitmix64: the healthy-chain lottery hash. Uniform over ids, cheap.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Counter-track values print as integers when integral, %.6g otherwise
/// (same policy as the timeline JSON).
void append_counter_value(std::string& out, double v) {
  const double r = std::floor(v);
  if (r == v && std::fabs(v) < 9.0e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

int event_tid(SpanEvent ev) noexcept {
  switch (ev) {
    case SpanEvent::kSubmit:
    case SpanEvent::kKick:
    case SpanEvent::kWakeup:
    case SpanEvent::kComplete:
      return kTidFrontend;
    case SpanEvent::kAvailPublish:
    case SpanEvent::kUsedPublish:
      return kTidRing;
    case SpanEvent::kBackendPop:
    case SpanEvent::kHostSyscall:
      return kTidBackend;
    case SpanEvent::kVirq:
      return kTidIrq;
    case SpanEvent::kNumEvents:
      break;
  }
  return kTidFrontend;
}

/// Within one request the simulated timestamps are causally ordered, but
/// cross-thread record() calls may append out of order; sorting by
/// (ts, pipeline position) restores the canonical sequence.
void sort_events(std::vector<TraceEv>& evs) {
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEv& a, const TraceEv& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return static_cast<int>(a.event) <
                            static_cast<int>(b.event);
                   });
}

template <std::size_t N>
void copy_name(char (&dst)[N], std::string_view src) noexcept {
  const std::size_t n = std::min(src.size(), N - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// The tail decision for a request whose kComplete record was just read:
/// count the outcome and return whether the chain stays in the views.
bool keep_at_tail(const RequestTrace& req, Nanos complete_ts,
                  const TracerConfig::Sample& s, Tracer::TailStats& tail) {
  // events.front() is the kSubmit of the begin record; later records may
  // be out of ts order but never precede it.
  const Nanos latency = complete_ts - req.events.front().ts;
  if (req.anomalous) {
    ++tail.kept_anomalous;
  } else if (s.latency_threshold_ns > 0 && latency >= s.latency_threshold_ns) {
    ++tail.kept_slow;
  } else if ((mix64(req.id) & 1023u) < s.keep_per_1024) {
    ++tail.kept_sampled;
  } else {
    ++tail.dropped;
    return false;
  }
  return true;
}

std::string g_trace_path;

void write_trace_at_exit() {
  if (!g_trace_path.empty()) tracer().write_chrome_trace(g_trace_path);
}

}  // namespace

const char* span_event_name(SpanEvent ev) noexcept {
  switch (ev) {
    case SpanEvent::kSubmit:
      return "submit";
    case SpanEvent::kAvailPublish:
      return "avail_publish";
    case SpanEvent::kKick:
      return "kick";
    case SpanEvent::kBackendPop:
      return "backend_pop";
    case SpanEvent::kHostSyscall:
      return "host_syscall";
    case SpanEvent::kUsedPublish:
      return "used_publish";
    case SpanEvent::kVirq:
      return "virq";
    case SpanEvent::kWakeup:
      return "wakeup";
    case SpanEvent::kComplete:
      return "complete";
    case SpanEvent::kNumEvents:
      break;
  }
  return "?";
}

void Tracer::set_enabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::set_config(const TracerConfig& cfg) {
  MutexLock lock(mu_);
  config_ = cfg;
}

void Tracer::mark_anomaly(TraceId id) {
  if (id == 0) return;
  MutexLock lock(mu_);
  anomalies_.push_back(id);
}

Tracer::TailStats Tracer::tail_stats() const {
  MutexLock lock(mu_);
  return group_locked().tail;
}

void Tracer::record_counter(const std::string& track, Nanos ts,
                            double value) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  std::uint32_t idx = 0;
  for (; idx < counter_tracks_.size(); ++idx) {
    if (counter_tracks_[idx] == track) break;
  }
  if (idx == counter_tracks_.size()) counter_tracks_.push_back(track);
  counter_evs_.push_back({idx, ts, value});
}

void Tracer::append(SpanRecord::Kind kind, TraceId id, TraceId parent,
                    const char* op, SpanEvent ev, Nanos ts) {
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.ts = ts;
  r.event = ev;
  r.kind = kind;
  if (op != nullptr) copy_name(r.op, op);
  copy_name(r.actor, this_actor().name());
  MutexLock lock(mu_);
  log_.push_back(r);
}

TraceId Tracer::begin_op(const char* name, Nanos ts) {
  if (!enabled()) return 0;
  const TraceId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  append(SpanRecord::Kind::kOp, id, 0, name, SpanEvent::kSubmit, ts);
  return id;
}

void Tracer::end_op(TraceId id, Nanos ts) {
  if (id == 0) return;
  append(SpanRecord::Kind::kEvent, id, 0, nullptr, SpanEvent::kComplete, ts);
}

TraceId Tracer::begin_request(const char* op_name, Nanos ts) {
  if (!enabled()) return 0;
  const TraceId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  append(SpanRecord::Kind::kRequest, id, t_current_op, op_name,
         SpanEvent::kSubmit, ts);
  return id;
}

void Tracer::record(TraceId id, SpanEvent ev, Nanos ts) {
  if (id == 0) return;  // the disabled / untraced fast path
  append(SpanRecord::Kind::kEvent, id, 0, nullptr, ev, ts);
}

void Tracer::clear() {
  MutexLock lock(mu_);
  log_.clear();
  anomalies_.clear();
  counter_tracks_.clear();
  counter_evs_.clear();
}

Tracer::Chains Tracer::group_locked() const {
  struct Slot {
    bool op;
    std::size_t index;
  };
  std::unordered_map<TraceId, Slot> where;
  std::vector<TraceId> marked = anomalies_;
  std::sort(marked.begin(), marked.end());
  const TracerConfig::Sample& sample = config_.sample;
  Chains out;
  for (const SpanRecord& r : log_) {
    if (r.kind != SpanRecord::Kind::kEvent) {
      const bool op = r.kind == SpanRecord::Kind::kOp;
      auto& chains = op ? out.ops : out.requests;
      where.emplace(r.id, Slot{op, chains.size()});
      chains.push_back({r.id, r.parent, r.op, {{SpanEvent::kSubmit, r.ts}}});
      chains.back().anomalous =
          !op && std::binary_search(marked.begin(), marked.end(), r.id);
      continue;
    }
    // A record whose chain did not begin since the last clear() is ignored:
    // clear() may race with requests still in flight and that is fine.
    const auto it = where.find(r.id);
    if (it == where.end()) continue;
    const auto [op, index] = it->second;
    RequestTrace& chain = (op ? out.ops : out.requests)[index];
    if (chain.id == 0) continue;  // already filtered at its tail
    chain.events.push_back({r.event, r.ts});
    if (!op && r.event == SpanEvent::kComplete && sample.tail &&
        !keep_at_tail(chain, r.ts, sample, out.tail)) {
      chain.id = 0;
    }
  }
  std::erase_if(out.requests, [](const RequestTrace& r) { return r.id == 0; });
  for (auto& r : out.requests) sort_events(r.events);
  for (auto& o : out.ops) sort_events(o.events);
  return out;
}

std::size_t Tracer::request_count() const {
  MutexLock lock(mu_);
  return group_locked().requests.size();
}

std::size_t Tracer::event_count() const {
  MutexLock lock(mu_);
  const Chains chains = group_locked();
  std::size_t n = 0;
  for (const auto& r : chains.requests) n += r.events.size();
  for (const auto& o : chains.ops) n += o.events.size();
  return n;
}

std::vector<RequestTrace> Tracer::requests() const {
  MutexLock lock(mu_);
  return group_locked().requests;
}

std::vector<RequestTrace> Tracer::ops() const {
  MutexLock lock(mu_);
  return group_locked().ops;
}

std::optional<RequestTrace> Tracer::find_request(TraceId id) const {
  if (id == 0) return std::nullopt;
  MutexLock lock(mu_);
  std::vector<TraceEv> events;
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->id != id) continue;
    if (it->kind == SpanRecord::Kind::kEvent) {
      events.push_back({it->event, it->ts});
      continue;
    }
    if (it->kind != SpanRecord::Kind::kRequest) return std::nullopt;
    RequestTrace req{id, it->parent, it->op, std::move(events)};
    req.events.push_back({SpanEvent::kSubmit, it->ts});
    sort_events(req.events);
    req.anomalous = std::find(anomalies_.begin(), anomalies_.end(), id) !=
                    anomalies_.end();
    return req;
  }
  return std::nullopt;
}

std::vector<SpanRecord> Tracer::recent(std::size_t n) const {
  MutexLock lock(mu_);
  const std::size_t first = log_.size() > n ? log_.size() - n : 0;
  // Op name of every chain in the window. A chain's begin record precedes
  // all its others, so names missing after the forward pass belong to
  // chains begun before the window: walk back until all are found.
  std::unordered_map<TraceId, const char*> op_of;
  std::size_t missing = 0;
  for (std::size_t i = first; i < log_.size(); ++i) {
    const SpanRecord& r = log_[i];
    const bool begin = r.kind != SpanRecord::Kind::kEvent;
    if (op_of.try_emplace(r.id, begin ? r.op : nullptr).second && !begin) {
      ++missing;
    }
  }
  for (std::size_t i = first; i > 0 && missing > 0; --i) {
    const SpanRecord& r = log_[i - 1];
    if (r.kind == SpanRecord::Kind::kEvent) continue;
    const auto it = op_of.find(r.id);
    if (it != op_of.end() && it->second == nullptr) {
      it->second = r.op;
      --missing;
    }
  }
  std::vector<SpanRecord> out;
  out.reserve(log_.size() - first);
  for (std::size_t i = first; i < log_.size(); ++i) {
    const char* op = op_of[log_[i].id];
    if (op == nullptr) continue;  // begun before the last clear()
    out.push_back(log_[i]);
    copy_name(out.back().op, op);
  }
  return out;
}

std::vector<Hop> Tracer::hop_breakdown() const {
  const auto reqs = requests();
  std::map<std::pair<int, int>, Summary> hops;
  for (const auto& r : reqs) {
    for (std::size_t i = 1; i < r.events.size(); ++i) {
      const auto& a = r.events[i - 1];
      const auto& b = r.events[i];
      hops[{static_cast<int>(a.event), static_cast<int>(b.event)}].add(
          static_cast<double>(b.ts - a.ts));
    }
  }
  std::vector<Hop> out;
  out.reserve(hops.size());
  for (const auto& [key, summary] : hops)
    out.push_back({static_cast<SpanEvent>(key.first),
                   static_cast<SpanEvent>(key.second), summary});
  return out;
}

std::string Tracer::chrome_trace_json() const {
  Chains chains;
  std::vector<std::string> counter_tracks;
  std::vector<CounterEv> counter_evs;
  {
    MutexLock lock(mu_);
    chains = group_locked();
    counter_tracks = counter_tracks_;
    counter_evs = counter_evs_;
  }

  struct ChromeEv {
    int tid;
    Nanos ts;
    std::string json;  // everything but pid/tid/ts
  };
  std::vector<ChromeEv> evs;

  auto make_args = [](TraceId id, const std::string& op) {
    std::string a = "\"args\":{\"trace\":" + std::to_string(id);
    if (!op.empty()) {
      a += ",\"op\":\"";
      append_json_escaped(a, op);
      a += '"';
    }
    a += '}';
    return a;
  };

  for (const auto& o : chains.ops) {
    if (o.events.empty()) continue;
    const Nanos t0 = o.events.front().ts;
    const Nanos t1 = o.events.back().ts;
    std::string j = "\"name\":\"";
    append_json_escaped(j, o.op);
    j += "\",\"ph\":\"X\",\"dur\":" +
         std::to_string(static_cast<double>(t1 - t0) / 1e3) + "," +
         make_args(o.id, o.op);
    evs.push_back({kTidGuestOps, t0, std::move(j)});
  }

  for (const auto& r : chains.requests) {
    for (std::size_t i = 0; i < r.events.size(); ++i) {
      const auto& e = r.events[i];
      if (i + 1 < r.events.size()) {
        // A complete slice for the hop to the next event, drawn on the
        // destination's track so each component shows the latency it is
        // responsible for ending.
        const auto& n = r.events[i + 1];
        std::string j = "\"name\":\"";
        j += span_event_name(e.event);
        j += "\\u2192";  // →
        j += span_event_name(n.event);
        j += "\",\"ph\":\"X\",\"dur\":" +
             std::to_string(static_cast<double>(n.ts - e.ts) / 1e3) + "," +
             make_args(r.id, r.op);
        evs.push_back({event_tid(n.event), e.ts, std::move(j)});
      } else {
        std::string j = "\"name\":\"";
        j += span_event_name(e.event);
        j += "\",\"ph\":\"i\",\"s\":\"t\"," + make_args(r.id, r.op);
        evs.push_back({event_tid(e.event), e.ts, std::move(j)});
      }
    }
  }

  // chrome://tracing only asks for per-track order; sorting the whole array
  // by (tid, ts) also satisfies the trace_smoke validator directly.
  std::stable_sort(evs.begin(), evs.end(),
                   [](const ChromeEv& a, const ChromeEv& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts < b.ts;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const std::pair<int, const char*> kTracks[] = {
      {kTidGuestOps, "guest ops"},
      {kTidFrontend, "frontend"},
      {kTidRing, "virtio ring"},
      {kTidBackend, "backend"},
      {kTidIrq, "vIRQ"},
  };
  for (const auto& [tid, name] : kTracks) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" + name + "\"}}";
  }
  for (const auto& e : evs) {
    out += ",{\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + std::to_string(static_cast<double>(e.ts) / 1e3) + "," +
           e.json + "}";
  }
  // Counter tracks ("ph":"C") after the span tracks: one shared tid (the
  // track identity in Chrome is the event *name*), sorted by ts so the
  // per-tid monotonicity the trace_smoke validator checks holds.
  if (!counter_evs.empty()) {
    std::stable_sort(counter_evs.begin(), counter_evs.end(),
                     [](const CounterEv& a, const CounterEv& b) {
                       return a.ts < b.ts;
                     });
    out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(kTidCounters) +
           ",\"args\":{\"name\":\"timeline counters\"}}";
    for (const CounterEv& c : counter_evs) {
      out += ",{\"pid\":1,\"tid\":" + std::to_string(kTidCounters) +
             ",\"ts\":" + std::to_string(static_cast<double>(c.ts) / 1e3) +
             ",\"ph\":\"C\",\"name\":\"";
      append_json_escaped(out, counter_tracks[c.track]);
      out += "\",\"args\":{\"value\":";
      append_counter_value(out, c.value);
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

Tracer& tracer() {
  static Tracer* instance = [] {
    auto* t = new Tracer();  // leaked: records may arrive past main()
    if (const char* env = std::getenv("VPHI_TRACE");
        env != nullptr && env[0] != '\0' && std::string{env} != "0") {
      t->set_enabled(true);
      if (std::string{env} != "1") {
        g_trace_path = env;
        std::atexit(write_trace_at_exit);
      }
    }
    return t;
  }();
  return *instance;
}

TraceOpScope::TraceOpScope(const char* name) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  id_ = t.begin_op(name, this_actor().now());
  saved_parent_ = t_current_op;
  t_current_op = id_;
}

TraceOpScope::~TraceOpScope() {
  if (id_ == 0) return;
  tracer().end_op(id_, this_actor().now());
  t_current_op = saved_parent_;
}

TraceOpDetach::TraceOpDetach() noexcept : saved_parent_(t_current_op) {
  t_current_op = 0;
}

TraceOpDetach::~TraceOpDetach() { t_current_op = saved_parent_; }

}  // namespace vphi::sim
