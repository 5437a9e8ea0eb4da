// Cross-layer request tracing on the simulated clock.
//
// A trace context (TraceId) is allocated per SCIF request as it enters the
// frontend, rides the host-side bookkeeping structures (FrontendDriver's
// Pending slot, the per-head slot table of virtio::Ring, Backend's Chain)
// — never the frozen wire headers — and collects span events at each hop:
//
//   kSubmit        frontend accepts the request        (guest driver)
//   kAvailPublish  descriptor chain visible on avail   (virtio ring)
//   kKick          doorbell actually sent              (guest driver)
//   kBackendPop    backend dequeues the chain          (QEMU backend)
//   kHostSyscall   host SCIF syscall issued            (QEMU backend)
//   kUsedPublish   completion visible on used          (virtio ring)
//   kVirq          vIRQ delivered to the guest         (hypervisor)
//   kWakeup        waiting guest context resumes       (guest driver)
//   kComplete      response parsed, buffers freed      (guest driver)
//
// All timestamps are simulated Nanos; recording never advances any actor's
// clock, so enabling tracing does not change a single measured number.
// When disabled (the default), record() costs one relaxed atomic load and
// every id is 0, so the hot path allocates nothing.
//
// Guest-level SCIF ops (scif_send, scif_readfrom, ...) open an op span via
// TraceOpScope; requests submitted while it is open link to it as their
// parent, which is how a pipelined 64 MiB read shows up as one op umbrella
// over four chunk requests.
//
// Storage: one append-only log of fixed-size SpanRecords under one mutex.
// Recording appends and looks nothing up; every view — requests(),
// hop_breakdown(), chrome_trace_json(), tail_stats() and the flight
// recorder's dump window — is a read that groups the log by trace id.
//
// Exports: hop_breakdown() aggregates per-request deltas between
// consecutive events (the simulated analogue of the paper's fig. 4b
// table); chrome_trace_json() emits a Chrome "chrome://tracing" /
// Perfetto-loadable trace. See docs/OBSERVABILITY.md.
//
// Env knob: VPHI_TRACE=1 enables tracing at startup; any other non-"0"
// value additionally names a file the Chrome trace is written to at exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::sim {

/// 0 means "not traced"; every live request carries a unique nonzero id.
using TraceId = std::uint64_t;

enum class SpanEvent : std::uint8_t {
  kSubmit = 0,
  kAvailPublish,
  kKick,
  kBackendPop,
  kHostSyscall,
  kUsedPublish,
  kVirq,
  kWakeup,
  kComplete,
  kNumEvents,
};

const char* span_event_name(SpanEvent ev) noexcept;

/// One recorded point of a request's lifetime.
struct TraceEv {
  SpanEvent event;
  Nanos ts;
};

/// Everything recorded for one request (or one guest-level op umbrella):
/// a read-side view grouped from the tracer's log.
struct RequestTrace {
  TraceId id = 0;
  TraceId parent = 0;  ///< enclosing op span, 0 if none
  std::string op;      ///< "readfrom", "send", ...
  std::vector<TraceEv> events;
  /// Flagged by mark_anomaly() (fault dump, watchdog stall): tail-based
  /// sampling always keeps this request's full chain.
  bool anomalous = false;
};

/// One entry of the tracer's log, the only place a span is stored. Fixed
/// size: recording copies names in (truncated) and allocates nothing but
/// the log's amortized growth.
struct SpanRecord {
  enum class Kind : std::uint8_t {
    kRequest,  ///< begin_request: kSubmit of a request chain
    kOp,       ///< begin_op: kSubmit of an op umbrella
    kEvent,    ///< record() or end_op(): one later point of a chain
  };
  TraceId id = 0;
  TraceId parent = 0;  ///< kRequest: enclosing op span, 0 if none
  Nanos ts = 0;
  SpanEvent event = SpanEvent::kSubmit;
  Kind kind = Kind::kEvent;
  char op[22] = {};     ///< op name (begin records; filled by recent())
  char actor[24] = {};  ///< name of the actor that recorded it
};

/// Tracer policy knobs (today: tail-based retention).
struct TracerConfig {
  /// Tail-based sampling, a read-side filter: every view decides keep or
  /// drop for a request's span chain at its *tail* (kComplete), when the
  /// outcome is known. A chain is kept when the request was marked
  /// anomalous (fault, watchdog stall), when its end-to-end latency
  /// reached latency_threshold_ns, or when it wins the keep_per_1024
  /// lottery; every other completed chain is left out of the views and
  /// the exports. Chains that never complete (dropped requests) are always
  /// retained. Op umbrellas are exempt.
  struct Sample {
    bool tail = false;
    Nanos latency_threshold_ns = 0;  ///< 0 = no latency criterion
    /// Healthy-chain retention rate out of 1024 (10 ≈ 1%). The lottery is
    /// a hash of the trace id: statistically uniform, but which *logical*
    /// request a given id lands on varies run to run (ids are a process-
    /// global allocation), so healthy retention is a rate, not a set.
    std::uint32_t keep_per_1024 = 10;
  } sample;
};

/// One aggregated hop of the pipeline: the latency between two consecutive
/// span events, summarized across every traced request that has both.
struct Hop {
  SpanEvent from;
  SpanEvent to;
  Summary ns;
};

class Tracer {
 public:
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept;

  void set_config(const TracerConfig& cfg) VPHI_EXCLUDES(mu_);

  /// Flag a request as anomalous so tail sampling keeps its full chain.
  /// Called by FlightRecorder::dump for its focus request — every fault
  /// dump and watchdog stall routes through there. No-op for id 0; ids
  /// with no chain since the last clear() are never read.
  void mark_anomaly(TraceId id) VPHI_EXCLUDES(mu_);

  /// Tail-sampling outcome counts over the log since the last clear().
  struct TailStats {
    std::uint64_t kept_anomalous = 0;
    std::uint64_t kept_slow = 0;     ///< latency >= threshold
    std::uint64_t kept_sampled = 0;  ///< healthy, won the lottery
    std::uint64_t dropped = 0;       ///< healthy, filtered at the tail
  };
  TailStats tail_stats() const VPHI_EXCLUDES(mu_);

  /// Append one point to a named Perfetto counter track (rendered beside
  /// the span tracks by chrome_trace_json). The timeline sampler feeds
  /// this; points must arrive in nondecreasing ts order per track.
  void record_counter(const std::string& track, Nanos ts, double value)
      VPHI_EXCLUDES(mu_);

  /// Open a guest-level op span (scif_send, scif_readfrom, ...). Returns 0
  /// when disabled.
  TraceId begin_op(const char* name, Nanos ts) VPHI_EXCLUDES(mu_);
  void end_op(TraceId id, Nanos ts) VPHI_EXCLUDES(mu_);

  /// Allocate a request trace and record kSubmit at `ts`. The request links
  /// to the calling thread's current op span (see TraceOpScope). Returns 0
  /// when disabled.
  TraceId begin_request(const char* op_name, Nanos ts) VPHI_EXCLUDES(mu_);

  /// Record one span event. No-op (no lock, no allocation) when id == 0.
  void record(TraceId id, SpanEvent ev, Nanos ts) VPHI_EXCLUDES(mu_);

  /// Drop everything recorded so far (ids remain unique process-wide).
  /// Records arriving later for an id begun before the clear are ignored.
  void clear() VPHI_EXCLUDES(mu_);

  std::size_t request_count() const VPHI_EXCLUDES(mu_);
  std::size_t event_count() const VPHI_EXCLUDES(mu_);

  /// All finished and in-flight request traces (op umbrellas excluded),
  /// in allocation order.
  std::vector<RequestTrace> requests() const VPHI_EXCLUDES(mu_);
  /// Op umbrella spans, in allocation order.
  std::vector<RequestTrace> ops() const VPHI_EXCLUDES(mu_);
  /// One request's chain, found by a backward walk of the log that stops
  /// at its begin record; nullopt when no request `id` began since clear().
  std::optional<RequestTrace> find_request(TraceId id) const
      VPHI_EXCLUDES(mu_);
  /// The newest `n` log records, oldest first, each with the op name of
  /// its chain; records of chains begun before the last clear() are left
  /// out. Feeds the flight recorder's dump window.
  std::vector<SpanRecord> recent(std::size_t n) const VPHI_EXCLUDES(mu_);

  /// Aggregate consecutive-event deltas across all traced requests, ordered
  /// by pipeline position. Within each request, events are sorted by
  /// (ts, pipeline order) first, so cross-thread append races never produce
  /// negative hops.
  std::vector<Hop> hop_breakdown() const VPHI_EXCLUDES(mu_);

  /// Chrome trace-event JSON ("traceEvents" array object): one track per
  /// component, complete ("X") slices per hop, instant events per span
  /// point, op umbrellas on the guest track.
  std::string chrome_trace_json() const VPHI_EXCLUDES(mu_);
  /// Write chrome_trace_json() to `path`; returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const VPHI_EXCLUDES(mu_);

 private:
  struct CounterEv {
    std::uint32_t track = 0;  ///< index into counter_tracks_
    Nanos ts = 0;
    double value = 0.0;
  };
  /// The views' common read: the log grouped into chains, tail filter
  /// applied.
  struct Chains {
    std::vector<RequestTrace> requests;
    std::vector<RequestTrace> ops;
    TailStats tail;
  };
  Chains group_locked() const VPHI_REQUIRES(mu_);
  void append(SpanRecord::Kind kind, TraceId id, TraceId parent,
              const char* op, SpanEvent ev, Nanos ts) VPHI_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::atomic<bool> enabled_{false};
  std::atomic<TraceId> next_id_{1};
  /// Append-only span log since the last clear(), in record order.
  std::vector<SpanRecord> log_ VPHI_GUARDED_BY(mu_);
  std::vector<TraceId> anomalies_ VPHI_GUARDED_BY(mu_);
  TracerConfig config_ VPHI_GUARDED_BY(mu_);
  std::vector<std::string> counter_tracks_ VPHI_GUARDED_BY(mu_);
  std::vector<CounterEv> counter_evs_ VPHI_GUARDED_BY(mu_);
};

Tracer& tracer();

/// RAII guest-op span: opens at construction (when tracing is enabled),
/// closes at destruction, both stamped from sim::this_actor(). While alive
/// it is the calling thread's "current op" that begin_request() links to.
class TraceOpScope {
 public:
  explicit TraceOpScope(const char* name);
  ~TraceOpScope();

  TraceOpScope(const TraceOpScope&) = delete;
  TraceOpScope& operator=(const TraceOpScope&) = delete;

  TraceId id() const noexcept { return id_; }

 private:
  TraceId id_ = 0;
  TraceId saved_parent_ = 0;
};

/// RAII: the calling thread is inside no op span until destruction, which
/// restores the enclosing one. The fleet engine runs shard 0 on the
/// caller's thread under one, so fleet requests never link to a
/// TraceOpScope the caller has open.
class TraceOpDetach {
 public:
  TraceOpDetach() noexcept;
  ~TraceOpDetach();

  TraceOpDetach(const TraceOpDetach&) = delete;
  TraceOpDetach& operator=(const TraceOpDetach&) = delete;

 private:
  TraceId saved_parent_;
};

}  // namespace vphi::sim
