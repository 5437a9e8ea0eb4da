#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "sim/actor.hpp"
#include "sim/json.hpp"

namespace vphi::sim {

// The ring is taken without zero-filling it, and its memory is stated in
// docs/OBSERVABILITY.md and DESIGN.md.
static_assert(std::is_trivially_default_constructible_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 176);

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

bool is_begin(const TraceRecord& r) noexcept {
  return r.kind == TraceRecord::Kind::kRequest ||
         r.kind == TraceRecord::Kind::kOp;
}

template <std::size_t N>
void copy_name(char (&dst)[N], std::string_view src) noexcept {
  const std::size_t n = std::min(src.size(), N - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
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

void Tracer::record_counter(const std::string& track, Nanos ts,
                            double value) {
  if (!enabled()) return;
  TraceRecord r{};
  r.kind = TraceRecord::Kind::kCounter;
  r.ts = ts;
  r.value = value;
  copy_name(r.actor, this_actor().name());
  MutexLock lock(mu_);
  std::uint32_t idx = 0;
  for (; idx < counter_tracks_.size(); ++idx) {
    if (counter_tracks_[idx] == track) break;
  }
  if (idx == counter_tracks_.size()) counter_tracks_.push_back(track);
  r.id = idx;
  append_locked(r);
}

void Tracer::record_log(LogLevel level, std::string_view component,
                        std::string_view msg, Nanos ts) {
  TraceRecord r{};
  r.kind = TraceRecord::Kind::kLog;
  r.ts = ts;
  r.level = level;
  copy_name(r.actor, this_actor().name());
  copy_name(r.name, component);
  copy_name(r.text, msg);
  MutexLock lock(mu_);
  append_locked(r);
}

void Tracer::append_locked(const TraceRecord& r) {
  if (!ring_) ring_ = std::make_unique_for_overwrite<TraceRecord[]>(kCapacity);
  if (appended_ >= kCapacity) dropped_.inc();
  ring_[appended_++ % kCapacity] = r;
}

void Tracer::append_span(TraceRecord::Kind kind, TraceId id, TraceId parent,
                         const char* op, SpanEvent ev, Nanos ts) {
  TraceRecord r{};
  r.kind = kind;
  r.id = id;
  r.parent = parent;
  r.ts = ts;
  r.event = ev;
  if (op != nullptr) copy_name(r.name, op);
  copy_name(r.actor, this_actor().name());
  MutexLock lock(mu_);
  append_locked(r);
}

TraceId Tracer::begin_op(const char* name, Nanos ts) {
  if (!enabled()) return 0;
  const TraceId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  append_span(TraceRecord::Kind::kOp, id, 0, name, SpanEvent::kSubmit, ts);
  return id;
}

void Tracer::end_op(TraceId id, Nanos ts) {
  if (id == 0) return;
  append_span(TraceRecord::Kind::kEvent, id, 0, nullptr, SpanEvent::kComplete,
              ts);
}

TraceId Tracer::begin_request(const char* op_name, Nanos ts) {
  if (!enabled()) return 0;
  const TraceId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  append_span(TraceRecord::Kind::kRequest, id, t_current_op, op_name,
              SpanEvent::kSubmit, ts);
  return id;
}

void Tracer::record(TraceId id, SpanEvent ev, Nanos ts) {
  if (id == 0) return;  // the disabled / untraced fast path
  append_span(TraceRecord::Kind::kEvent, id, 0, nullptr, ev, ts);
}

void Tracer::clear() {
  MutexLock lock(mu_);
  appended_ = 0;
  counter_tracks_.clear();
}

Tracer::Chains Tracer::group_locked() const {
  struct Slot {
    bool op;
    std::size_t index;
  };
  std::unordered_map<TraceId, Slot> where;
  Chains out;
  for (std::uint64_t seq = oldest_locked(); seq < appended_; ++seq) {
    const TraceRecord& r = at_locked(seq);
    if (is_begin(r)) {
      const bool op = r.kind == TraceRecord::Kind::kOp;
      auto& chains = op ? out.ops : out.requests;
      where.emplace(r.id, Slot{op, chains.size()});
      chains.push_back({r.id, r.parent, r.name, {{SpanEvent::kSubmit, r.ts}}});
      continue;
    }
    if (r.kind != TraceRecord::Kind::kEvent) continue;
    // A record whose chain's begin is not in the ring (overwritten, or
    // begun before the last clear()) is ignored: no view shows a partial
    // chain.
    const auto it = where.find(r.id);
    if (it == where.end()) continue;
    const auto [op, index] = it->second;
    (op ? out.ops : out.requests)[index].events.push_back({r.event, r.ts});
  }
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
  for (std::uint64_t seq = appended_; seq > oldest_locked(); --seq) {
    const TraceRecord& r = at_locked(seq - 1);
    if (r.id != id) continue;
    if (r.kind == TraceRecord::Kind::kEvent) {
      events.push_back({r.event, r.ts});
      continue;
    }
    if (r.kind != TraceRecord::Kind::kRequest) continue;
    RequestTrace req{id, r.parent, r.name, std::move(events)};
    req.events.push_back({SpanEvent::kSubmit, r.ts});
    sort_events(req.events);
    return req;
  }
  return std::nullopt;
}

Tracer::Window Tracer::recent(std::size_t n) const {
  MutexLock lock(mu_);
  const std::uint64_t first =
      std::max(oldest_locked(), appended_ > n ? appended_ - n : 0);
  // Op name of every chain in the window. A chain's begin record precedes
  // all its others, so names missing after the forward pass belong to
  // chains begun before the window: walk back until all are found.
  std::unordered_map<TraceId, const char*> op_of;
  std::size_t missing = 0;
  for (std::uint64_t seq = first; seq < appended_; ++seq) {
    const TraceRecord& r = at_locked(seq);
    if (r.kind != TraceRecord::Kind::kEvent && !is_begin(r)) continue;
    const bool begin = is_begin(r);
    if (op_of.try_emplace(r.id, begin ? r.name : nullptr).second && !begin) {
      ++missing;
    }
  }
  for (std::uint64_t seq = first; seq > oldest_locked() && missing > 0;
       --seq) {
    const TraceRecord& r = at_locked(seq - 1);
    if (!is_begin(r)) continue;
    const auto it = op_of.find(r.id);
    if (it != op_of.end() && it->second == nullptr) {
      it->second = r.name;
      --missing;
    }
  }
  Window out;
  out.overwritten = oldest_locked();
  out.records.reserve(appended_ - first);
  for (std::uint64_t seq = first; seq < appended_; ++seq) {
    const TraceRecord& r = at_locked(seq);
    if (r.kind == TraceRecord::Kind::kCounter) continue;
    if (r.kind == TraceRecord::Kind::kLog) {
      out.records.push_back(r);
      continue;
    }
    const char* op = op_of[r.id];
    if (op == nullptr) continue;  // its chain's begin is gone
    out.records.push_back(r);
    copy_name(out.records.back().name, op);
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
  std::vector<TraceRecord> counters;
  {
    MutexLock lock(mu_);
    chains = group_locked();
    counter_tracks = counter_tracks_;
    for (std::uint64_t seq = oldest_locked(); seq < appended_; ++seq) {
      const TraceRecord& r = at_locked(seq);
      if (r.kind == TraceRecord::Kind::kCounter) counters.push_back(r);
    }
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
  if (!counters.empty()) {
    std::stable_sort(counters.begin(), counters.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       return a.ts < b.ts;
                     });
    out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(kTidCounters) +
           ",\"args\":{\"name\":\"timeline counters\"}}";
    for (const TraceRecord& c : counters) {
      out += ",{\"pid\":1,\"tid\":" + std::to_string(kTidCounters) +
             ",\"ts\":" + std::to_string(static_cast<double>(c.ts) / 1e3) +
             ",\"ph\":\"C\",\"name\":\"";
      append_json_escaped(out, counter_tracks[c.id]);
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
