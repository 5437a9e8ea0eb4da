// Always-on flight recorder: the last window of observability events,
// rendered for the moment something goes wrong.
//
// The recorder stores nothing itself. Its window is a view of sim::Tracer's
// record ring, the one place span events, log lines (sim::log_line) and
// timeline counter points are kept, each stamped with the simulated
// timestamp and the recording actor's name. The recorder is a pure
// observer — it never touches any actor's clock — so leaving it on does
// not move a single simulated number.
//
// When a failure fires (a frontend timeout, a backend validation error, an
// injected fault, a watchdog stall, a fleet SLO alert), the owning
// component calls dump(): the ring's newest kCapacity records are read in
// one walk, sorted onto one simulated-time axis and rendered as an
// annotated text dump (counter points are left to the Chrome trace). When
// the dump has a focus request, its complete span chain is looked up in
// the ring and printed first — the window may have moved past the
// request's early events, the ring may not have.
//
// Span events only exist while sim::Tracer is enabled (an untraced request
// has id 0 and records nothing); log lines exist at or above the VPHI_LOG
// level, whether or not tracing is enabled. The first kMaxStderrDumps
// dumps also go to stderr; the last dump is always retrievable in-process
// via last_dump().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/metrics.hpp"
#include "sim/thread_safety.hpp"
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
  /// Records a dump's window reads from the tracer's ring (the newest
  /// ones), sized so a multi-VM pipelined burst's recent history fits.
  static constexpr std::size_t kCapacity = 2048;
  /// Dumps written to stderr before going quiet (a probabilistic fault
  /// sweep would otherwise bury the test log); counting and last_dump()
  /// continue past the cap.
  static constexpr std::uint64_t kMaxStderrDumps = 4;

  FlightRecorder() = default;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Empty the tracer's ring, so vphi.recorder.entries_dropped counts
  /// overwrites from an empty ring (dump counts are untouched).
  void clear();

  /// Trigger: render the window's annotated text, bump vphi.recorder.dumps,
  /// write the first kMaxStderrDumps to stderr and return the dump. Never
  /// advances any actor's clock, and never holds its own lock while it
  /// reads the tracer.
  FlightDump dump(std::string_view reason, TraceId focus = 0)
      VPHI_EXCLUDES(mu_);

  /// Copy of the most recent dump (empty FlightDump when none happened).
  FlightDump last_dump() const VPHI_EXCLUDES(mu_);

 private:
  /// Numbers each dump (FlightDump::seq); the count operators read is
  /// vphi.recorder.dumps.
  std::atomic<std::uint64_t> dumps_{0};

  mutable Mutex mu_;
  FlightDump last_ VPHI_GUARDED_BY(mu_);

  metrics::Counter dump_counter_{"vphi.recorder.dumps"};
};

/// The process-global recorder every failure path dumps.
FlightRecorder& flight_recorder();

}  // namespace vphi::sim
