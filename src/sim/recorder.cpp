#include "sim/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "sim/log.hpp"

namespace vphi::sim {

void FlightRecorder::clear() { tracer().clear(); }

FlightDump FlightRecorder::dump(std::string_view reason, TraceId focus) {
  Tracer::Window window = tracer().recent(kCapacity);
  const std::optional<RequestTrace> chain = tracer().find_request(focus);

  FlightDump d;
  d.seq = dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  dump_counter_.inc();
  d.reason.assign(reason.data(), reason.size());
  d.focus = focus;

  std::string& out = d.text;
  out.reserve(256 + window.records.size() * 96);
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
  // ts order. Spans sort before log lines on ties.
  const auto is_log = [](const TraceRecord& r) {
    return r.kind == TraceRecord::Kind::kLog;
  };
  std::stable_sort(window.records.begin(), window.records.end(),
                   [&](const TraceRecord& a, const TraceRecord& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return !is_log(a) && is_log(b);
                   });
  std::snprintf(
      line, sizeof(line),
      "--- recent events (oldest first, %zu buffered, %llu overwritten) "
      "---\n",
      window.records.size(),
      static_cast<unsigned long long>(window.overwritten));
  out += line;
  for (const TraceRecord& r : window.records) {
    if (is_log(r)) {
      std::snprintf(line, sizeof(line), "  [%12lld ns] %-20s log  %s %s: %s\n",
                    static_cast<long long>(r.ts), r.actor,
                    level_letter(r.level), r.name, r.text);
    } else {
      std::snprintf(line, sizeof(line),
                    "  [%12lld ns] %-20s span %-13s trace=%llu op=%s\n",
                    static_cast<long long>(r.ts), r.actor,
                    span_event_name(r.event),
                    static_cast<unsigned long long>(r.id), r.name);
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
  // detached actors may dump past main()'s end.
  return *instance;
}

}  // namespace vphi::sim
