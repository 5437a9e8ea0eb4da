#include "sim/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "sim/actor.hpp"

namespace vphi::sim {
namespace {

void copy_trunc(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

const char* level_letter(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kDebug: return "D";
    case LogLevel::kTrace: return "T";
    default: return "?";
  }
}

}  // namespace

FlightRecorder::FlightRecorder() {
  ring_.resize(kCapacity);  // the only allocation the recorder ever makes
}

void FlightRecorder::clear() {
  MutexLock lock(mu_);
  next_ = 0;
  count_ = 0;
  overwritten_ = 0;
}

void FlightRecorder::record_log(LogLevel level, std::string_view component,
                                std::string_view msg, Nanos ts) {
  Entry e;
  e.level = level;
  e.ts = ts;
  copy_trunc(e.actor, sizeof(e.actor), this_actor().name());
  copy_trunc(e.component, sizeof(e.component), component);
  copy_trunc(e.text, sizeof(e.text), msg);
  MutexLock lock(mu_);
  if (count_ == kCapacity) {
    ++overwritten_;
    dropped_counter_.inc();
  } else {
    ++count_;
  }
  ring_[next_] = e;
  next_ = (next_ + 1) % kCapacity;
}

FlightDump FlightRecorder::dump(std::string_view reason, TraceId focus) {
  // Every dump is an anomaly by definition: flag the focus chain so
  // tail-based trace sampling keeps it in full.
  if (focus != 0) tracer().mark_anomaly(focus);
  std::vector<Entry> logs;
  std::uint64_t overwritten = 0;
  {
    MutexLock lock(mu_);
    logs.reserve(count_);
    const std::size_t start = (next_ + kCapacity - count_) % kCapacity;
    for (std::size_t i = 0; i < count_; ++i) {
      logs.push_back(ring_[(start + i) % kCapacity]);
    }
    overwritten = overwritten_;
  }
  std::vector<SpanRecord> spans = tracer().recent(kCapacity);
  const std::optional<RequestTrace> chain = tracer().find_request(focus);

  FlightDump d;
  d.seq = dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  dump_counter_.inc();
  d.reason.assign(reason.data(), reason.size());
  d.focus = focus;

  std::string& out = d.text;
  out.reserve(256 + (spans.size() + logs.size()) * 96);
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== vphi flight recorder dump #%llu ===\n",
                static_cast<unsigned long long>(d.seq));
  out += line;
  out += "reason: ";
  out.append(reason.data(), reason.size());
  out += '\n';

  if (focus != 0) {
    std::snprintf(line, sizeof(line), "focus: trace %llu\n",
                  static_cast<unsigned long long>(focus));
    out += line;
  }
  if (chain) {
    std::snprintf(line, sizeof(line),
                  "--- focus span chain (op %s, %zu events) ---\n",
                  chain->op.c_str(), chain->events.size());
    out += line;
    for (const auto& ev : chain->events) {
      std::snprintf(line, sizeof(line), "  [%12lld ns] %s\n",
                    static_cast<long long>(ev.ts), span_event_name(ev.event));
      out += line;
    }
  }

  // One simulated-time axis: records from different actors arrive out of
  // ts order, so sort each side, then merge (spans first on ties).
  const auto by_ts = [](const auto& a, const auto& b) { return a.ts < b.ts; };
  std::stable_sort(spans.begin(), spans.end(), by_ts);
  std::stable_sort(logs.begin(), logs.end(), by_ts);
  std::snprintf(
      line, sizeof(line),
      "--- recent events (oldest first, %zu buffered, %llu overwritten) "
      "---\n",
      spans.size() + logs.size(),
      static_cast<unsigned long long>(overwritten));
  out += line;
  auto s = spans.begin();
  auto l = logs.begin();
  while (s != spans.end() || l != logs.end()) {
    if (l == logs.end() || (s != spans.end() && s->ts <= l->ts)) {
      std::snprintf(line, sizeof(line),
                    "  [%12lld ns] %-20s span %-13s trace=%llu op=%s\n",
                    static_cast<long long>(s->ts), s->actor,
                    span_event_name(s->event),
                    static_cast<unsigned long long>(s->id), s->op);
      ++s;
    } else {
      std::snprintf(line, sizeof(line), "  [%12lld ns] %-20s log  %s %s: %s\n",
                    static_cast<long long>(l->ts), l->actor,
                    level_letter(l->level), l->component, l->text);
      ++l;
    }
    out += line;
  }
  std::snprintf(line, sizeof(line), "=== end dump #%llu ===\n",
                static_cast<unsigned long long>(d.seq));
  out += line;

  if (d.seq <= kMaxStderrDumps) {
    std::fwrite(out.data(), 1, out.size(), stderr);
  }
  {
    MutexLock lock(mu_);
    last_ = d;
  }
  return d;
}

FlightDump FlightRecorder::last_dump() const {
  MutexLock lock(mu_);
  return last_;
}

FlightRecorder& flight_recorder() {
  static FlightRecorder* instance = new FlightRecorder();  // leaked:
  // log records may arrive from detached actors past main()'s end.
  return *instance;
}

}  // namespace vphi::sim
