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
// Storage: one ring of kCapacity fixed-size TraceRecords under one mutex,
// the only place a span, a log line (sim::log_line) or a timeline counter
// point is stored. The ring's memory is taken at the first record and
// never grows; when it is full the oldest record is overwritten and
// vphi.recorder.entries_dropped counts it. Recording appends and looks
// nothing up; every view — requests(), hop_breakdown(),
// chrome_trace_json() and the flight recorder's dump window — is a read
// that groups the ring by trace id. A chain's begin record is appended
// before any of its later records, so a chain whose begin is still in the
// ring is complete, and the views skip every chain whose begin is gone.
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
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
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
/// a read-side view grouped from the tracer's ring.
struct RequestTrace {
  TraceId id = 0;
  TraceId parent = 0;  ///< enclosing op span, 0 if none
  std::string op;      ///< "readfrom", "send", ...
  std::vector<TraceEv> events;
};

enum class LogLevel : int;

/// One entry of the tracer's ring. Fixed size: recording copies names and
/// text in (truncated) and allocates nothing after the ring's first record.
/// No member initializers, so the ring is taken without zero-filling it.
struct TraceRecord {
  enum class Kind : std::uint8_t {
    kRequest,  ///< begin_request: kSubmit of a request chain
    kOp,       ///< begin_op: kSubmit of an op umbrella
    kEvent,    ///< record() or end_op(): one later point of a chain
    kLog,      ///< record_log: one emitted log line
    kCounter,  ///< record_counter: one timeline counter point
  };
  Nanos ts;
  TraceId id;      ///< span kinds: the chain; kCounter: counter track index
  TraceId parent;  ///< kRequest: enclosing op span, 0 if none
  double value;    ///< kCounter: the point's value
  Kind kind;
  SpanEvent event;  ///< span kinds
  LogLevel level;   ///< kLog
  char actor[24];   ///< name of the actor that recorded it
  char name[16];    ///< op name (begin records; filled by recent()) or log
                    ///< component
  char text[96];    ///< kLog: the message
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

  /// Records the ring holds; the newest kCapacity records are kept.
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  /// Append one point to a named Perfetto counter track (rendered beside
  /// the span tracks by chrome_trace_json). The timeline sampler feeds
  /// this; points must arrive in nondecreasing ts order per track.
  void record_counter(const std::string& track, Nanos ts, double value)
      VPHI_EXCLUDES(mu_);

  /// Append one emitted log line (called from sim::log_line whether or not
  /// tracing is enabled), stamped with the calling actor's name.
  void record_log(LogLevel level, std::string_view component,
                  std::string_view msg, Nanos ts) VPHI_EXCLUDES(mu_);

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

  /// Drop every record in the ring (ids remain unique process-wide; the
  /// ring's memory is kept). Records arriving later for an id begun before
  /// the clear are ignored.
  void clear() VPHI_EXCLUDES(mu_);

  std::size_t request_count() const VPHI_EXCLUDES(mu_);
  std::size_t event_count() const VPHI_EXCLUDES(mu_);

  /// All finished and in-flight request traces (op umbrellas excluded),
  /// in allocation order.
  std::vector<RequestTrace> requests() const VPHI_EXCLUDES(mu_);
  /// Op umbrella spans, in allocation order.
  std::vector<RequestTrace> ops() const VPHI_EXCLUDES(mu_);
  /// One request's chain, found by a backward walk of the ring that stops
  /// at its begin record; nullopt when the ring holds no begin of `id`.
  std::optional<RequestTrace> find_request(TraceId id) const
      VPHI_EXCLUDES(mu_);
  /// The flight recorder's dump window: span records and log lines among
  /// the newest `n` records, oldest first, each span record with the op
  /// name of its chain (chains whose begin is gone are left out), and the
  /// records the ring has overwritten since the last clear().
  struct Window {
    std::vector<TraceRecord> records;
    std::uint64_t overwritten = 0;
  };
  Window recent(std::size_t n) const VPHI_EXCLUDES(mu_);

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
  /// The views' common read: the ring grouped into chains.
  struct Chains {
    std::vector<RequestTrace> requests;
    std::vector<RequestTrace> ops;
  };
  Chains group_locked() const VPHI_REQUIRES(mu_);
  /// Sequence number of the oldest record still in the ring.
  std::uint64_t oldest_locked() const VPHI_REQUIRES(mu_) {
    return appended_ > kCapacity ? appended_ - kCapacity : 0;
  }
  const TraceRecord& at_locked(std::uint64_t seq) const VPHI_REQUIRES(mu_) {
    return ring_[seq % kCapacity];
  }
  void append_locked(const TraceRecord& r) VPHI_REQUIRES(mu_);
  void append_span(TraceRecord::Kind kind, TraceId id, TraceId parent,
                   const char* op, SpanEvent ev, Nanos ts) VPHI_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::atomic<bool> enabled_{false};
  std::atomic<TraceId> next_id_{1};
  /// kCapacity slots, taken at the first record; null until then.
  std::unique_ptr<TraceRecord[]> ring_ VPHI_GUARDED_BY(mu_)
      VPHI_PT_GUARDED_BY(mu_);
  /// Records appended since the last clear(); the next goes to slot
  /// appended_ % kCapacity.
  std::uint64_t appended_ VPHI_GUARDED_BY(mu_) = 0;
  /// Counter track names; a kCounter record's id indexes this table.
  std::vector<std::string> counter_tracks_ VPHI_GUARDED_BY(mu_);
  metrics::Counter dropped_{"vphi.recorder.entries_dropped"};
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
