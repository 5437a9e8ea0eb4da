// Always-on flight recorder: the last window of observability events,
// retained for the moment something goes wrong.
//
// The recorder owns a fixed-size ring of recent log lines, each stamped
// with the simulated timestamp and the recording actor's name. Steady state
// allocates nothing: entries are preallocated fixed-width slots, recording
// is a memcpy under a mutex, and the ring silently overwrites its oldest
// entry when full. Span events are not copied here: sim::Tracer's log is
// the only place a span is stored, and a dump reads its newest records.
// The recorder is a pure observer — it never touches any actor's clock —
// so leaving it on does not move a single simulated number.
//
// When a failure fires (a frontend timeout, a backend validation error, an
// injected fault, a watchdog stall), the owning component calls dump(): the
// log ring and the tracer's last kCapacity span records are merged on one
// simulated-time axis and rendered as an annotated text dump. When the dump
// has a focus request, its complete span chain is looked up in the tracer
// and printed first — the window may have moved past the request's early
// events, the tracer's log has not.
//
// Span events only exist while sim::Tracer is enabled (an untraced request
// has id 0 and records nothing); log lines only exist at or above the
// VPHI_LOG level. The first kMaxStderrDumps dumps also go to stderr; the
// last dump is always retrievable in-process via last_dump().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/log.hpp"
#include "sim/metrics.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace vphi::sim {

/// One emitted dump: the annotated text of the window at trigger time.
struct FlightDump {
  std::uint64_t seq = 0;  ///< 1-based dump sequence number
  std::string reason;
  TraceId focus = 0;
  std::string text;
};

class FlightRecorder {
 public:
  /// Log lines retained in the ring, and span records a dump reads from
  /// the tracer. Power of two, sized so a multi-VM pipelined burst's full
  /// recent history fits.
  static constexpr std::size_t kCapacity = 2048;
  /// Dumps written to stderr before going quiet (a probabilistic fault
  /// sweep would otherwise bury the test log); counting and last_dump()
  /// continue past the cap.
  static constexpr std::uint64_t kMaxStderrDumps = 4;

  FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Drop every buffered log line (tests; dump counts are untouched).
  void clear() VPHI_EXCLUDES(mu_);

  /// Feed one emitted log line (called from sim::log_line).
  void record_log(LogLevel level, std::string_view component,
                  std::string_view msg, Nanos ts) VPHI_EXCLUDES(mu_);

  /// Trigger: render the window's annotated text, bump vphi.recorder.dumps,
  /// write the first kMaxStderrDumps to stderr and return the dump. Never
  /// advances any actor's clock, and never holds its own lock while it
  /// reads the tracer.
  FlightDump dump(std::string_view reason, TraceId focus = 0)
      VPHI_EXCLUDES(mu_);

  std::uint64_t dump_count() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }
  /// Copy of the most recent dump (empty FlightDump when none happened).
  FlightDump last_dump() const VPHI_EXCLUDES(mu_);
  /// Log lines currently buffered (bounded by kCapacity).
  std::size_t entry_count() const VPHI_EXCLUDES(mu_);

 private:
  struct Entry {
    LogLevel level = LogLevel::kOff;
    Nanos ts = 0;
    char actor[24] = {};
    char component[16] = {};
    char text[96] = {};  ///< the message, truncated
  };

  std::atomic<std::uint64_t> dumps_{0};

  mutable Mutex mu_;
  /// Preallocated to kCapacity, never resized.
  std::vector<Entry> ring_ VPHI_GUARDED_BY(mu_);
  std::size_t next_ VPHI_GUARDED_BY(mu_) = 0;
  /// Valid entries (<= kCapacity).
  std::size_t count_ VPHI_GUARDED_BY(mu_) = 0;
  /// Entries lost to wraparound.
  std::uint64_t overwritten_ VPHI_GUARDED_BY(mu_) = 0;
  FlightDump last_ VPHI_GUARDED_BY(mu_);

  metrics::Counter dump_counter_{"vphi.recorder.dumps"};
  metrics::Counter dropped_counter_{"vphi.recorder.entries_dropped"};
};

/// The process-global recorder sim::log_line feeds and every failure path
/// dumps.
FlightRecorder& flight_recorder();

}  // namespace vphi::sim
