// Sharded deterministic fleet engine.
//
// run_fleet() executes a fleet-scale vPHI scenario — V guest VMs submitting
// requests to C cards — entirely on the simulated clock. VMs and cards are
// statically partitioned over S shards (vm % S / card % S). Each shard is
// ONE OS thread running an event-driven loop over a local priority queue
// (the calling thread runs shard 0, S - 1 spawned threads the rest);
// shards synchronize only at virtual-time epoch barriers and exchange
// doorbell/completion events through plain vectors, two per (src, dst)
// shard pair picked by epoch parity: a shard appends to one during an
// epoch, and the receiver drains it at the top of the next, after the
// barrier that orders the two. Watermark traffic follows sim/shard.hpp:
// per-shard exact slots, global bumps only at epoch boundaries.
//
// Determinism: same FleetConfig + same seed => bit-identical metrics
// snapshots under any real thread interleaving. The full argument is in
// docs/DETERMINISM.md; the load-bearing rules are (1) per-VM splittable
// RNG streams, (2) a deterministic total order (ts, src_shard, seq) on
// every shard's event queue, (3) cross-shard events always landing in a
// strictly later epoch than the one that sent them (the epoch equals the
// minimum cross-shard latency), and (4) order-independent metric cells.
//
// No FleetResult field depends on the wall clock; engine wall speed is
// measured from outside the engine (bench/perf).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"

namespace vphi::sim {

class Timeline;  // sim/timeseries.hpp — the fleet metric sampler

/// One request as a card's scheduler sees it. Built by the engine at
/// doorbell time; the (enqueue_ns, vm, seq) triple is the deterministic
/// tie-break a scheduler must fall back to so same-seed runs stay
/// bit-identical.
struct CardJob {
  std::uint32_t vm = 0;
  std::uint32_t bytes = 0;
  Nanos enqueue_ns = 0;   ///< when the doorbell reached the card
  Nanos ready_ns = 0;     ///< earliest start (schedulers may defer)
  Nanos submit_ts = 0;    ///< arrival timestamp latency is measured from
  Nanos service_ns = 0;   ///< modeled card time the job occupies
  std::uint64_t seq = 0;  ///< sender sequence number (tie-break)
  TraceId trace = 0;
};

/// Queueing discipline for one card, supplied by the control plane
/// (src/service/). All calls happen on the card's shard thread — no
/// locking needed — and must be pure functions of the job stream and
/// simulated time (no wall clock, no RNG) to preserve determinism.
class CardScheduler {
 public:
  virtual ~CardScheduler() = default;
  virtual void enqueue(const CardJob& job) = 0;
  /// Pop the job to serve at simulated time `now`. When no job is
  /// runnable yet but some are queued, set *next_ready to the earliest
  /// time one becomes runnable and return nullopt.
  virtual std::optional<CardJob> next(Nanos now, Nanos* next_ready) = 0;
  virtual bool empty() const = 0;
};

/// Admission verdict for one arrival.
enum class AdmitAction : std::uint8_t {
  kAdmit,     ///< submit now
  kThrottle,  ///< retry the same arrival defer_ns later (closed loop)
  kReject,    ///< drop; the VM thinks and tries a fresh request
};

struct AdmitDecision {
  AdmitAction action = AdmitAction::kAdmit;
  Nanos defer_ns = 0;  ///< kThrottle only; must be > 0 and deterministic
};

/// Control-plane hooks the fleet engine consults when present. Every
/// callback runs on a shard thread (shard 0's is the thread that called
/// run_fleet, so a hook must not take a lock its caller holds) and must
/// be deterministic: a function of (vm, bytes, simulated time) and of
/// state the callee partitions per VM / per card the same way the engine
/// does (vm % S, card % S).
struct TenantHooks {
  /// Admission check, called once per would-be submission after the
  /// payload draw (so the draw order of docs/DETERMINISM.md is shared
  /// with the no-hooks schedule).
  std::function<AdmitDecision(std::uint32_t vm, std::uint32_t bytes,
                              Nanos now)>
      admit;
  /// Factory for each card's queueing discipline; called once per card on
  /// the main thread before shards spawn. Null = FIFO (engine default).
  std::function<std::unique_ptr<CardScheduler>(std::uint32_t card)>
      make_card_scheduler;
  /// Completion notification (per-tenant accounting / latency recording).
  /// `trace` is the request's span-chain id (0 when tracing is off), so
  /// SLO alerting can focus a flight-recorder dump on an offending
  /// request.
  std::function<void(std::uint32_t vm, std::uint32_t bytes, Nanos card_ns,
                     Nanos latency_ns, Nanos now, TraceId trace)>
      on_complete;
  /// Epoch notification, run inside the barrier's completion step: exactly
  /// once per epoch, single-threaded, every shard thread parked — the one
  /// deterministic point where cross-shard state (per-tenant series, SLO
  /// windows) is quiescent and may be read exactly. Runs before the
  /// timeline sampler, so state it publishes lands in the same sample.
  std::function<void(Nanos epoch_end)> on_epoch;
  /// Upper bound on any defer_ns the admit hook returns or any deferral a
  /// CardScheduler applies; folded into the engine's runaway guard.
  Nanos max_defer_ns = 0;

  bool enabled() const noexcept { return static_cast<bool>(admit); }
};

struct FleetConfig {
  std::uint32_t vms = 64;
  std::uint32_t cards = 4;
  /// Shard count; clamped to [1, min(kMaxShards, vms)].
  std::uint32_t shards = 8;
  /// Arrivals stop at this simulated time; the run then drains in-flight
  /// requests to quiescence.
  Nanos duration_ns = 20 * kMillisecond;
  std::uint64_t seed = 42;
  /// Stamp per-request span events through sim::tracer(). Off by default:
  /// every shard appends hundreds of thousands of records to the one span
  /// log (under its mutex), and the log keeps each of them — tail sampling
  /// filters the views, not the recording.
  bool trace_requests = false;
  /// Modeled cross-shard lane capacity per (src, dst) pair: each event
  /// beyond it sent down one lane within one epoch counts as
  /// vphi.sim.channel.backpressure. Delivery is lossless either way.
  std::uint32_t channel_capacity = 1024;

  TrafficConfig traffic;

  /// Tenant control-plane hooks (admission, per-card scheduling,
  /// completion accounting). Disabled by default — the no-hooks schedule
  /// is bit-identical to the pre-control-plane engine, which is what the
  /// committed abl8 baselines pin.
  TenantHooks hooks;

  /// Fleet timeline sampler. The engine calls begin_run before shards
  /// spawn, sample() inside every epoch barrier's completion step, and
  /// finish_run after join. A **pure observer**: null, disabled, or any
  /// cadence produce the bit-identical FleetResult and metrics snapshot.
  /// Not owned.
  Timeline* timeline = nullptr;
};

struct FleetResult {
  std::uint64_t requests = 0;      ///< submitted (== completed at the end)
  std::uint64_t completed = 0;     ///< completions recorded
  std::uint64_t dropped = 0;       ///< arrivals dropped offline (churn/storm)
  std::uint64_t rejected = 0;      ///< arrivals refused by the admit hook
  std::uint64_t throttled = 0;     ///< admit-hook throttle deferrals taken
  std::uint64_t bytes = 0;
  std::uint64_t epochs = 0;        ///< barrier generations run
  std::uint64_t channel_sent = 0;  ///< cross-shard events
  std::uint64_t backpressure = 0;  ///< sends beyond channel_capacity
  Nanos sim_end_ns = 0;            ///< last event timestamp
  double mean_ns = 0.0;            ///< request latency (arrival->completion)
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  /// Shard load imbalance: (max - min) / mean of per-shard completed
  /// requests; 0 for a perfectly balanced fleet or a single shard.
  double imbalance = 0.0;
  std::vector<std::uint64_t> per_shard_requests;
};

/// Run one fleet scenario to quiescence. Registers vphi.sim.* instruments
/// for the duration of the run (per-shard labels "shard=s<i>"); see the
/// engine section of docs/OBSERVABILITY.md for the catalogue.
FleetResult run_fleet(const FleetConfig& cfg);

}  // namespace vphi::sim
