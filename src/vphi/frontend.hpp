// The vPHI frontend driver — the guest kernel module.
//
// Sits between the (unmodified) guest libscif and the virtio transport:
// intercepts each SCIF operation, stages payloads through kmalloc'd bounce
// buffers (<= KMALLOC_MAX_SIZE), posts a request chain, kicks the backend,
// and waits for the response according to the configured waiting scheme:
//
//  * kInterrupt — the paper's implementation: sleep on a wait queue until
//    the virtual interrupt; cheap in CPU, expensive in latency (the 93% of
//    the 375 us overhead measured in Sec. IV-B).
//  * kPolling — busy-wait on the used ring: near-native latency, burns a
//    guest vCPU (the alternative the paper rejected for large transfers).
//  * kHybrid — the paper's proposed future work: poll below a size
//    threshold, sleep above it.
//
// Multi-queue: the driver shards all per-request state per virtqueue — one
// QueueState (lock, pending map, zombie list, watchdog cache) per queue —
// so vCPUs submitting on different queues never contend on a shared driver
// lock. Requests are routed queue = epd % num_queues (epd-less control ops
// ride queue 0), which also preserves per-endpoint ordering.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "hv/vm.hpp"
#include "sim/actor.hpp"
#include "sim/metrics.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"
#include "sim/trace.hpp"
#include "vphi/protocol.hpp"

namespace vphi::core {

enum class WaitScheme {
  kInterrupt,
  kPolling,
  kHybrid,
};

const char* wait_scheme_name(WaitScheme scheme) noexcept;

struct FrontendConfig {
  /// How wait() blocks; kHybrid switches at
  /// FrontendDriver::kHybridThreshold.
  WaitScheme scheme = WaitScheme::kInterrupt;
  /// Bounce-buffer (and therefore chunk) size. Clamped to KMALLOC_MAX_SIZE
  /// — Linux will not hand out larger physically contiguous allocations.
  /// Ablation A4 sweeps this down to show the per-chunk ring overhead.
  std::size_t max_payload = hv::kKmallocMaxSize;

  /// Per-request timeout in *simulated* time. 0 disables timeouts entirely
  /// (legacy behavior: wait forever). When set, a request whose completion
  /// is not visible by the deadline fails with kTimedOut, at once if its
  /// chain is stranded on the ring (Virtqueue::stranded), and an
  /// idempotent op is replayed up to FrontendDriver::kMaxRetries times.
  sim::Nanos request_timeout_ns = 0;

  /// Maximum chunks guest_scif's chunk walk keeps in flight at once for a
  /// blocking send/recv or any readfrom/writeto (a non-blocking stream
  /// always walks one chunk at a time), capped at
  /// GuestScifProvider::kMaxWindow. 1 is the paper's serial chunk walk:
  /// chunk N+1 is not posted until chunk N's completion has been parsed.
  std::size_t pipeline_window = 1;
  /// Per-command chunk size for RMA ops (readfrom/writeto). RMA carries no
  /// ring payload — the data DMAs straight into the pinned window — so it
  /// is not bound by KMALLOC_MAX_SIZE; this bounds the DMA each command
  /// programs, and is what a pipeline_window > 1 overlaps.
  std::size_t rma_chunk = 16ull << 20;

  /// Zero-copy registered windows: pin guest pages and build the DMA
  /// sg-list once at scif_register time (kReqFlagPrebuiltSg on the wire),
  /// and carry guest-physical SgEntry lists through the ring for
  /// readfrom/writeto hitting a registered window so the backend maps the
  /// pages directly instead of bouncing. Off reproduces the paper's
  /// bounce-and-rebuild behavior (ablation abl7 sweeps both).
  bool zero_copy = true;

  /// Stall watchdog (always on, a pure observer that never advances the
  /// simulated clock): the budget derives from the observed completion
  /// latencies, FrontendDriver::kWatchdogMultiplier * p99, and arms only
  /// after this many completions, so it reflects this workload rather than
  /// a guess.
  std::size_t watchdog_min_samples = 32;
};

class FrontendDriver {
 public:
  using Config = FrontendConfig;

  /// Maximum payload per request chain: one kmalloc'd bounce buffer.
  static constexpr std::size_t kMaxPayload = hv::kKmallocMaxSize;
  /// Stall-watchdog budget as a multiple of the p99 completion latency.
  static constexpr double kWatchdogMultiplier = 8.0;
  /// Bounded retry for idempotent ops (open/bind/get_node_ids/card_info)
  /// that fail with kTimedOut or kIoError. Non-idempotent ops never retry.
  static constexpr std::uint32_t kMaxRetries = 2;
  /// WaitScheme::kHybrid: payloads strictly below this poll, others sleep.
  static constexpr std::size_t kHybridThreshold = 32 * 1024;

  explicit FrontendDriver(hv::Vm& vm, Config config = {});
  ~FrontendDriver();

  FrontendDriver(const FrontendDriver&) = delete;
  FrontendDriver& operator=(const FrontendDriver&) = delete;

  /// Virtio probe: status handshake + feature negotiation + per-queue ISR
  /// registration. Must succeed before transact() may be used.
  sim::Status probe();
  bool probed() const noexcept {
    return probed_.load(std::memory_order_acquire);
  }

  struct TransactArgs {
    RequestHeader header;
    const void* out_payload = nullptr;  ///< guest user data to stage out
    std::size_t out_len = 0;
    void* in_payload = nullptr;  ///< guest user buffer for response data
    std::size_t in_len = 0;      ///< its capacity
  };
  struct TransactResult {
    ResponseHeader response;
    std::size_t in_written = 0;  ///< bytes copied back to in_payload
  };

  /// Run one request/response round trip through the ring: submit() then
  /// wait(), replaying idempotent ops. Payloads must fit one bounce buffer
  /// (<= chunk_size()); chunking of larger transfers is the caller's job
  /// (GuestScifProvider's chunk walk, mirroring the paper, drives
  /// submit()/wait() itself).
  sim::Expected<TransactResult> transact(sim::Actor& actor,
                                         const TransactArgs& args);

  /// Handle for a request posted with submit(); redeem with wait().
  struct Token {
    std::uint64_t seq = 0;
    std::uint16_t queue = 0;  ///< virtqueue the request was posted on
    explicit operator bool() const noexcept { return seq != 0; }
  };

  /// Async half of the pipelined path: stage the payload, post the chain
  /// and (unless EVENT_IDX says the device is already draining) kick — then
  /// return without waiting. Up to the ring's capacity of requests can be
  /// in flight; GuestScifProvider bounds itself to
  /// FrontendConfig::pipeline_window. The caller must eventually wait() on
  /// every token returned (or the request's state leaks).
  sim::Expected<Token> submit(sim::Actor& actor, const TransactArgs& args);

  /// Redeem a token: block (per the configured waiting scheme) until the
  /// request completes or times out, then parse the response and copy any
  /// payload back. A completion that an earlier chunk's coalesced interrupt
  /// already delivered is reaped for pipeline_reap_ns instead of a full
  /// sleep/wake cycle. Timeout/retry/zombie semantics are identical to
  /// transact()'s, per in-flight request.
  sim::Expected<TransactResult> wait(sim::Actor& actor, Token token);

  /// Block until every queue's zombie chains are reclaimed: the chains lost
  /// requests left behind have come back through the used ring and their
  /// bounce buffers are free. Waits on the reclaim in drain_used, never on
  /// a timer; the rescue kick a lost request sends guarantees it comes.
  void quiesce();

  /// Effective bounce-buffer size (config.max_payload clamped to the
  /// kmalloc cap).
  std::size_t chunk_size() const noexcept {
    return config_.max_payload < kMaxPayload ? config_.max_payload
                                             : kMaxPayload;
  }

  hv::Vm& vm() noexcept { return *vm_; }
  const Config& config() const noexcept { return config_; }

  /// Queue a request for `epd` rides: epd % num_queues, with epd-less
  /// control ops (epd < 0) on queue 0. Deterministic, and per-endpoint
  /// ordering is preserved by construction.
  std::uint16_t queue_for(std::int32_t epd) const noexcept {
    if (epd < 0) return 0;
    return static_cast<std::uint16_t>(
        static_cast<std::uint32_t>(epd) % queues_.size());
  }
  std::uint16_t num_queues() const noexcept {
    return static_cast<std::uint16_t>(queues_.size());
  }

  /// In-flight requests summed over all queues (tests assert this returns
  /// to zero after faults).
  std::size_t pending_requests() const;

  /// RAII active-call marker so the destructor can drain callers that a VM
  /// shutdown woke but that have not yet left driver code, or a layer on
  /// top of it: every GuestScifProvider call holds one too.
  struct ActiveCall {
    explicit ActiveCall(FrontendDriver& fe) : fe_(fe) {
      sim::MutexLock lock(fe_.active_mu_);
      ++fe_.active_calls_;
    }
    ~ActiveCall() {
      sim::MutexLock lock(fe_.active_mu_);
      if (--fe_.active_calls_ == 0) fe_.active_cv_.notify_all();
    }
    ActiveCall(const ActiveCall&) = delete;
    ActiveCall& operator=(const ActiveCall&) = delete;
    FrontendDriver& fe_;
  };

 private:
  struct Pending {
    std::uint64_t ticket = 0;   ///< wait-queue ticket (interrupt waiters)
    bool interrupt_wait = true;
    bool completed = false;
    sim::Nanos done_ts = 0;
    sim::Nanos used_ts = 0;      ///< used-ring time of the completion
    /// When the interrupt waiter armed used_event; unarmed until it waits.
    sim::Nanos armed_ts = std::numeric_limits<sim::Nanos>::max();
    std::uint32_t written = 0;
    // Everything wait() needs to finish the request the submit started.
    Op op = Op::kOpen;
    std::uint16_t head = 0;      ///< chain head while in the ring
    sim::Nanos deadline = 0;     ///< simulated deadline; 0 = unbounded
    void* in_payload = nullptr;  ///< user buffer for the response payload
    std::size_t in_len = 0;
    std::uint64_t resp_gpa = 0;
    std::uint64_t in_gpa = 0;        ///< 0 when in_len == 0
    std::vector<std::uint64_t> gpas; ///< owned bounce buffers (park order)
    sim::TraceId trace = 0;          ///< request trace context (0 = off)
    sim::Nanos submit_ts = 0;        ///< submit_once entry time
    bool stall_flagged = false;      ///< watchdog fired for this request
    /// Identity of the submitting actor (compared, never dereferenced) and
    /// the chain's avail ring slot: what the watchdog ages it by.
    const sim::Actor* submitter = nullptr;
    std::uint16_t avail_pos = 0;
  };
  struct OpCounters {
    OpCounters(Op op, const std::string& label);
    sim::metrics::Counter errors;    ///< transact() attempts that failed
    sim::metrics::Counter timeouts;  ///< ... of which hit the deadline
    sim::metrics::Counter retries;   ///< retries issued for this op
  };

  /// Everything the driver tracks per virtqueue. One doorbell, one lock:
  /// requests on different queues never serialize on each other.
  struct QueueState {
    QueueState(const std::string& vm_name, std::uint16_t index);

    const std::uint16_t index;
    // Lock order: mu -> ring lock (submit_once posts and drain_used pops
    // under mu; the ring never calls back into the driver).
    mutable sim::Mutex mu;
    /// In-flight requests keyed by a per-queue sequence number. The chain
    /// head is NOT a stable key: its descriptors are freed the moment the
    /// used entry is drained, so another thread can reuse the head while
    /// the original waiter is still between wakeup and pickup — a
    /// head-keyed map would let the new request overwrite (and the old
    /// waiter steal/erase) the other's entry, silently dropping a
    /// completion.
    std::map<std::uint64_t, Pending> pending VPHI_GUARDED_BY(mu);
    /// Which pending request currently owns each ring head. At most one
    /// chain per head can be inside the ring at a time, so this is a plain
    /// map; entries are erased when the used entry is drained or the owner
    /// gives up.
    std::map<std::uint16_t, std::uint64_t> inflight VPHI_GUARDED_BY(mu);
    std::uint64_t next_seq VPHI_GUARDED_BY(mu) = 1;
    /// Bounce buffers of timed-out requests, parked until the chain's used
    /// entry finally surfaces — freeing them earlier would let a late
    /// backend write land in re-kmalloc'd memory. Keyed by chain head.
    std::map<std::uint16_t, std::vector<std::uint64_t>> zombies
        VPHI_GUARDED_BY(mu);
    /// Signalled when drain_used reclaims the last zombie (quiesce()).
    sim::CondVar zombies_gone;
    // Per-queue stall-watchdog cache (the budget itself derives from the
    // shared latency histogram, but each queue throttles its own scans).
    sim::Nanos watchdog_budget_cache VPHI_GUARDED_BY(mu) = 0;
    std::uint32_t watchdog_scan_tick VPHI_GUARDED_BY(mu) = 0;
    // Per-queue labeled instruments ("vm=<name>,q=<i>"): the labeled
    // breakdown and the aggregate under the same vphi.queue.* name read
    // the same atomics, so per-queue sums equal aggregates bit-exactly.
    sim::metrics::Counter requests;     ///< vphi.queue.requests
    sim::metrics::Counter completions;  ///< vphi.queue.completions
    sim::metrics::Counter timeouts;     ///< vphi.queue.timeouts
    sim::metrics::Counter bytes_out;    ///< vphi.queue.bytes_out
    sim::metrics::Counter ring_full;    ///< vphi.queue.ring_full
  };

  QueueState& queue_state(std::uint16_t queue) noexcept {
    return *queues_[queue];
  }

  /// counters_ entry for `op`, created on first use.
  OpCounters& op_counters_locked(Op op) VPHI_REQUIRES(op_mu_);

  /// submit() minus the failure accounting.
  sim::Expected<Token> submit_once(sim::Actor& actor,
                                   const TransactArgs& args);
  /// wait() minus the failure accounting.
  sim::Expected<TransactResult> wait_once(sim::Actor& actor, Token token);
  /// End a wait whose completion check stopped (either scheme): move a
  /// completed request into `req` and return kOk. One still incomplete is
  /// lost in the transport (its chain was found stranded): sync to
  /// `deadline`, run the watchdog over it, park its buffers as a zombie,
  /// rescue-kick the queue and return kTimedOut.
  sim::Status claim_or_lose(sim::Actor& actor, Token token,
                            std::uint16_t head, Op op, sim::Nanos deadline,
                            Pending& req);
  /// Response demux + copy-back + bounce-buffer free (the tail every
  /// completion path shares).
  sim::Expected<TransactResult> finish(sim::Actor& actor, Pending& req);
  void free_buffers(Pending& req);
  void record_failure(Op op, std::uint16_t queue, sim::Status st)
      VPHI_EXCLUDES(op_mu_);
  /// Drop the head -> seq claim if this request stops waiting while its
  /// chain is still in the ring. q.mu must be held.
  void forget_inflight_locked(QueueState& q, std::uint16_t head,
                              std::uint64_t seq) VPHI_REQUIRES(q.mu);
  /// Drain one queue's used ring into its pending map and wake interrupt
  /// waiters.
  void on_irq(std::uint16_t queue, sim::Nanos irq_ts);
  void drain_used(std::uint16_t queue, sim::Nanos ts_floor);
  /// An interrupt waiter armed before its entry was pushed, in simulated
  /// time, wakes on that entry's vIRQ: stamp it at the used time plus
  /// irq_inject_ns, whichever host thread drained it. An entry pushed at
  /// or before the arm was coalesced and stays free, as EVENT_IDX intends.
  void charge_virq(Pending& p) const;
  bool use_polling(std::size_t payload) const;
  /// Watchdog sweep over one queue's pending map: flag (once) every request
  /// the calling actor submitted whose chain sits stranded on the avail
  /// ring (see Virtqueue::stranded) for longer than the stall budget on
  /// that actor's own clock; bump vphi.watchdog.stalls and dump the flight
  /// recorder focused on it. Each vCPU is its own simulated timeline, so
  /// no other actor's clock (nor the global watermark they push) can age
  /// its requests; and a chain the device has been told about is merely
  /// late while the device thread waits for a CPU, however long a poller
  /// spins. Pure observer — never touches any actor clock.
  void watchdog_scan_locked(QueueState& q) VPHI_REQUIRES(q.mu);
  /// Stall budget = kWatchdogMultiplier * p99(request_latency_), armed once
  /// min_samples completions exist; cached per queue and recomputed every
  /// ~32 scans so the sweep stays cheap.
  sim::Nanos watchdog_budget_locked(QueueState& q) VPHI_REQUIRES(q.mu);

  hv::Vm* vm_;
  Config config_;
  /// Set once by probe(), read from every submit/wait thread — atomic so a
  /// probe racing early traffic is a clean rejection, not a data race.
  std::atomic<bool> probed_{false};

  /// Teardown vs. woken-waiter race: Vm::shutdown() wakes every sleeping
  /// waiter, but the waiter still has to walk back out through pending /
  /// counters_ on its own thread. The destructor blocks until every
  /// transact/submit/wait caller has left.
  sim::Mutex active_mu_;
  sim::CondVar active_cv_;
  int active_calls_ VPHI_GUARDED_BY(active_mu_) = 0;

  /// Per-queue request state (QueueState is non-movable: it owns a mutex
  /// and registry instruments). Sized once in the constructor from
  /// Vm::num_queues(); the vector itself is immutable afterwards.
  std::vector<std::unique_ptr<QueueState>> queues_;

  /// Per-op failure counters are cross-queue (an op can ride any queue),
  /// so they keep their own lock rather than any queue's.
  sim::Mutex op_mu_;
  std::map<Op, OpCounters> counters_ VPHI_GUARDED_BY(op_mu_);
  /// Tenant label ("vm=<name>") stamped on every instrument below, so the
  /// registry splits the vphi.fe.* catalogue per VM while the aggregates
  /// keep their existing names and sums.
  const std::string label_;
  sim::metrics::Counter requests_;
  sim::metrics::Counter interrupt_waits_;
  sim::metrics::Counter polled_waits_;
  /// Requests that hit their deadline, and transport-level retries issued.
  sim::metrics::Counter timeouts_;
  sim::metrics::Counter retries_;
  /// Responses rejected by frontend validation: used.len shorter than a
  /// ResponseHeader, a status int outside sim::Status, or a payload_len
  /// exceeding the posted response-buffer capacity.
  sim::metrics::Counter protocol_errors_;
  /// Completions reaped on the pipelined fast path (already delivered by a
  /// coalesced interrupt — no sleep, no per-chunk wakeup cost).
  sim::metrics::Counter fast_reaps_;
  /// Simulated CPU time burned spinning (polling scheme).
  sim::metrics::Counter poll_cpu_burn_ns_;
  /// Payload bytes staged out / copied back — the per-VM throughput basis
  /// the fairness index is computed over.
  sim::metrics::Counter bytes_out_;
  sim::metrics::Counter bytes_in_;
  /// Bounce-buffer sets parked by timed-out requests, not yet reclaimed.
  sim::metrics::Gauge zombie_chains_;
  /// submit-to-complete latency of every successful request.
  sim::metrics::LatencyHistogram request_latency_;

  // Stall-watchdog instruments (the per-queue cache lives in QueueState):
  // requests flagged (at most once each), the current budget (0 while
  // unarmed), and 1 once the first budget is derived.
  sim::metrics::Counter watchdog_stalls_;
  sim::metrics::Gauge watchdog_budget_ns_;
  sim::metrics::Gauge watchdog_armed_;
};

}  // namespace vphi::core
