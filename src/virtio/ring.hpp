// Virtio split virtqueue (descriptor table + avail ring + used ring).
//
// Structurally faithful to the virtio 1.0 split ring: the guest driver posts
// descriptor *chains* referencing guest-physical buffers and kicks; the host
// device pops chains, resolves the addresses through a translation callback
// (QEMU's registered guest-memory mapping), consumes/fills the buffers in
// place — zero copies, exactly the property the paper leans on — and pushes
// the chain head onto the used ring, then injects an interrupt.
//
// Timestamps ride along: a kick carries the driver-side visibility time, a
// used entry the device-side completion time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/actor.hpp"
#include "sim/metrics.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"
#include "sim/trace.hpp"

namespace vphi::virtio {

inline constexpr std::uint16_t VIRTQ_DESC_F_NEXT = 0x1;
inline constexpr std::uint16_t VIRTQ_DESC_F_WRITE = 0x2;

/// One descriptor table entry (virtq_desc).
struct Desc {
  std::uint64_t addr = 0;  ///< guest-physical address
  std::uint32_t len = 0;
  std::uint16_t flags = 0;
  std::uint16_t next = 0;
};

/// A guest buffer reference the driver wants to post.
struct BufferRef {
  std::uint64_t gpa = 0;
  std::uint32_t len = 0;
};

/// Used-ring element (virtq_used_elem).
struct UsedElem {
  std::uint32_t id = 0;   ///< head descriptor index of the completed chain
  std::uint32_t len = 0;  ///< bytes the device wrote into WRITE buffers
  sim::Nanos ts = 0;      ///< device-side completion visibility time
};

/// Resolves a guest-physical range to host-virtual memory. Must return
/// nullptr for addresses outside registered guest memory.
using MemTranslate =
    std::function<void*(std::uint64_t gpa, std::uint32_t len)>;

/// What kick_prepare() settled for the entries published since the last
/// call.
enum class Doorbell {
  kRing,        ///< write the doorbell; kick() delivers it to the device
  kSuppressed,  ///< EVENT_IDX: the entries ride a doorbell already rung
  kLost,        ///< write the doorbell; it never reaches the device
};

/// A popped chain as the device sees it: resolved segments in chain order.
struct Chain {
  std::uint16_t head = 0;
  sim::Nanos kick_ts = 0;
  /// Trace context of the request riding this chain (0 = untraced). Host-
  /// side bookkeeping only — the wire format is untouched.
  sim::TraceId trace = 0;
  /// The descriptor walk hit the size_ cap or an out-of-table index — the
  /// guest posted a cyclic or corrupted chain. The device must not trust
  /// any segment content; it should answer with an error response (or a
  /// zero-length used entry) and move on.
  bool poisoned = false;
  struct Segment {
    void* ptr = nullptr;
    std::uint32_t len = 0;
    bool device_writes = false;  ///< VIRTQ_DESC_F_WRITE
  };
  std::vector<Segment> segments;

  /// Total length of device-writable segments.
  std::uint32_t writable_bytes() const {
    std::uint32_t n = 0;
    for (const auto& s : segments) {
      if (s.device_writes) n += s.len;
    }
    return n;
  }
};

class Virtqueue {
 public:
  /// `size` must be a power of two (virtio requirement). `label` is the
  /// owning tenant's metric label ("vm=vm0"); empty for raw ring users —
  /// the ring's instruments then contribute to the aggregates only.
  Virtqueue(std::uint16_t size, MemTranslate translate,
            std::string label = {});

  std::uint16_t size() const noexcept { return size_; }

  /// Negotiated at probe time (VIRTIO_F_EVENT_IDX): both sides consult the
  /// used_event/avail_event indices before notifying. Off by default so raw
  /// ring users keep the legacy always-notify behavior.
  void set_event_idx(bool enabled) VPHI_EXCLUDES(mu_);

  // --- driver (guest) side -------------------------------------------------

  /// Post a chain: `out` buffers are device-readable, `in` buffers are
  /// device-writable (WRITE flag). Returns the chain's head descriptor id,
  /// or kNoSpace when the table cannot hold the chain. `publish_ts` is the
  /// simulated time the avail entry became visible; it bounds the chain's
  /// kick_ts when the doorbell itself is suppressed (EVENT_IDX). `trace`
  /// ties the chain to a request trace: the ring records kAvailPublish now,
  /// stamps popped Chains with it, and records kUsedPublish on completion.
  /// `submitter` is the posting vCPU, remembered for reuse_ts().
  sim::Expected<std::uint16_t> add_buf(std::span<const BufferRef> out,
                                       std::span<const BufferRef> in,
                                       sim::Nanos publish_ts = 0,
                                       sim::TraceId trace = 0,
                                       const sim::Actor* submitter = nullptr)
      VPHI_EXCLUDES(mu_);

  /// Settle the doorbell for the entries published since the last
  /// kick_prepare (virtqueue_kick_prepare). kSuppressed (EVENT_IDX, counted)
  /// when the device has not armed avail_event over the published range:
  /// the entries ride the last doorbell, and strand with it if it was lost.
  /// Otherwise the doorbell is written, and whether it arrives (kRing) or
  /// not (kLost, FaultSite::kKickDrop) is settled here, under the ring lock,
  /// as its coverage is recorded. The caller charges the vmexit for both
  /// and calls kick() only for kRing.
  Doorbell kick_prepare() VPHI_EXCLUDES(mu_);

  /// Deliver a doorbell: notify the device that avail entries are pending.
  /// `visible_ts` is the simulated time the kick reaches the device (the
  /// caller has already charged the MMIO/vmexit cost). Called after a kRing
  /// prepare, or directly as a rescue kick, which is never lost.
  void kick(sim::Nanos visible_ts) VPHI_EXCLUDES(mu_);

  /// Non-blocking poll of the used ring. Frees the chain's descriptors.
  std::optional<UsedElem> get_used() VPHI_EXCLUDES(mu_);

  /// Driver side of EVENT_IDX: arm used_event at the current consumption
  /// point ("interrupt me for the next completion"). Returns true when used
  /// entries are already pending, in which case the caller must re-drain —
  /// the arm raced a push_used whose interrupt was suppressed (the classic
  /// lost-wakeup edge). No-op returning false when EVENT_IDX is off.
  bool arm_used_event() VPHI_EXCLUDES(mu_);

  /// Simulated time from which `submitter` may reuse the next `n`
  /// descriptors on the free list: the latest completion that freed one
  /// of them for another submitter (0 when fewer than `n` are free). On a
  /// queue several vCPUs share, a vCPU behind that time waits for it.
  sim::Nanos reuse_ts(std::uint16_t n, const sim::Actor* submitter) const
      VPHI_EXCLUDES(mu_);

  // --- device (host) side -------------------------------------------------------

  /// Pop and resolve the next avail chain, if any, without waiting for a
  /// doorbell. Device-side FIFO order matches avail order.
  std::optional<Chain> try_pop_avail() VPHI_EXCLUDES(mu_);

  /// Batch pop: drain every ready avail entry (one wakeup amortized over the
  /// whole burst). Blocks when nothing is ready; with EVENT_IDX on it arms
  /// avail_event and atomically rechecks before sleeping, so a suppressed
  /// doorbell can never strand a published chain. An empty vector means the
  /// ring shut down.
  std::vector<Chain> pop_avail_batch() VPHI_EXCLUDES(mu_);

  /// Device side of EVENT_IDX, called after push_used: should a vIRQ be
  /// injected for the entries pushed since the last interrupt? Always true
  /// (and signal-point advancing) with EVENT_IDX off.
  bool should_interrupt() VPHI_EXCLUDES(mu_);

  /// Complete a chain: make it visible on the used ring at `done_ts` with
  /// `written` bytes produced. The caller raises the VM interrupt itself.
  sim::Status push_used(std::uint16_t head, std::uint32_t written,
                        sim::Nanos done_ts) VPHI_EXCLUDES(mu_);

  /// Stop the queue: once no doorbell is pending, pop_avail_batch returns
  /// an empty batch to unblock the device.
  void shutdown() VPHI_EXCLUDES(mu_);

  // --- introspection / invariants ---------------------------------------------
  std::uint16_t free_descriptors() const VPHI_EXCLUDES(mu_);
  std::uint16_t avail_idx() const VPHI_EXCLUDES(mu_);
  // Per-instance reads of the registered metrics (registry names in
  // docs/OBSERVABILITY.md; a multi-VM snapshot sums across instances).
  std::uint64_t kicks() const { return kick_count_.value(); }
  /// Doorbells kick_prepare settled as lost (kKickDrop).
  std::uint64_t dropped_kicks() const { return dropped_kicks_.value(); }
  /// Doorbells elided because the device was already draining (EVENT_IDX).
  std::uint64_t suppressed_kicks() const { return suppressed_kicks_.value(); }
  /// Interrupts elided because no driver armed used_event (EVENT_IDX).
  std::uint64_t suppressed_irqs() const { return suppressed_irqs_.value(); }
  /// Chains whose descriptor walk was cut short by the size_ cap (cyclic or
  /// corrupted next pointers, genuine or injected).
  std::uint64_t poisoned_chains() const { return poisoned_chains_.value(); }
  /// Chains whose segment list lost its tail to fault injection.
  std::uint64_t truncated_chains() const { return truncated_chains_.value(); }
  /// True while avail entry `pos` is published but neither consumed by the
  /// device nor covered by a doorbell that reached it (or was suppressed
  /// behind one that did): the state a lost kick leaves behind. The device never scans the ring unprompted, so such a chain
  /// waits for a rescue kick however long anyone polls.
  bool stranded(std::uint16_t pos) const VPHI_EXCLUDES(mu_);

 private:
  sim::Expected<std::uint16_t> alloc_desc_locked() VPHI_REQUIRES(mu_);
  void free_chain_locked(std::uint16_t head, sim::Nanos freed_ts)
      VPHI_REQUIRES(mu_);
  std::optional<Chain> try_pop_avail_locked() VPHI_REQUIRES(mu_);
  /// Drain every ready avail entry under mu_ into `out`.
  void drain_avail_locked(std::vector<Chain>& out) VPHI_REQUIRES(mu_);

  std::uint16_t size_;
  MemTranslate translate_;

  // Lock order: ring mu_ -> tracer mu_ (add_buf/push_used record span
  // events under mu_; the tracer never reaches back into the ring).
  mutable sim::Mutex mu_;
  std::vector<Desc> table_ VPHI_GUARDED_BY(mu_);
  /// Per descriptor: who last posted it (compared, never dereferenced),
  /// and the completion time that freed it.
  std::vector<const sim::Actor*> owner_ VPHI_GUARDED_BY(mu_);
  std::vector<sim::Nanos> freed_ts_ VPHI_GUARDED_BY(mu_);
  std::vector<std::uint16_t> avail_ring_ VPHI_GUARDED_BY(mu_);
  /// Parallel to avail_ring_.
  std::vector<sim::Nanos> avail_publish_ts_ VPHI_GUARDED_BY(mu_);
  /// Indexed by head descriptor.
  std::vector<sim::TraceId> trace_by_head_ VPHI_GUARDED_BY(mu_);
  std::vector<UsedElem> used_ring_ VPHI_GUARDED_BY(mu_);
  /// Head of the free-descriptor list.
  std::uint16_t free_head_ VPHI_GUARDED_BY(mu_) = 0;
  std::uint16_t num_free_ VPHI_GUARDED_BY(mu_) = 0;
  /// Driver's producer index.
  std::uint16_t avail_idx_ VPHI_GUARDED_BY(mu_) = 0;
  /// Device's consumer index.
  std::uint16_t avail_consumed_ VPHI_GUARDED_BY(mu_) = 0;
  /// Device's producer index.
  std::uint16_t used_idx_ VPHI_GUARDED_BY(mu_) = 0;
  /// Driver's consumer index.
  std::uint16_t used_consumed_ VPHI_GUARDED_BY(mu_) = 0;
  /// Chains between add_buf and get_used.
  std::uint16_t live_chains_ VPHI_GUARDED_BY(mu_) = 0;
  sim::metrics::Counter kick_count_;
  sim::metrics::Counter dropped_kicks_;
  sim::metrics::Counter poisoned_chains_;
  sim::metrics::Counter truncated_chains_;
  /// Point-in-time ring occupancy (chains in flight) and its distribution
  /// sampled at every add_buf.
  sim::metrics::Gauge inflight_gauge_;
  sim::metrics::LatencyHistogram occupancy_hist_;

  // --- EVENT_IDX state (virtio 1.0 sec 2.6.7) -------------------------------
  bool event_idx_ VPHI_GUARDED_BY(mu_) = false;
  /// Device: "kick me past this idx".
  std::uint16_t avail_event_shadow_ VPHI_GUARDED_BY(mu_) = 0;
  /// Driver: avail_idx_ at last prepare.
  std::uint16_t kick_point_ VPHI_GUARDED_BY(mu_) = 0;
  /// avail_idx_ when the device was last told (doorbell delivered, or
  /// elided behind a delivered one); entries below it are not stranded.
  std::uint16_t notified_idx_ VPHI_GUARDED_BY(mu_) = 0;
  /// The last doorbell written was lost and none has been delivered since:
  /// the entries suppressed behind it are stranded too.
  bool doorbell_lost_ VPHI_GUARDED_BY(mu_) = false;
  /// Driver: "irq me past this idx".
  std::uint16_t used_event_shadow_ VPHI_GUARDED_BY(mu_) = 0;
  /// Device: used_idx_ at last irq.
  std::uint16_t used_signal_point_ VPHI_GUARDED_BY(mu_) = 0;
  sim::metrics::Counter suppressed_kicks_;
  sim::metrics::Counter suppressed_irqs_;

  // --- doorbell line (kick -> pop_avail_batch) --------------------------------
  /// Delivered doorbells the device has not consumed yet.
  std::uint64_t doorbells_ VPHI_GUARDED_BY(mu_) = 0;
  /// Latest visible_ts any kick() ever delivered; stamped on popped chains.
  sim::Nanos doorbell_ts_ VPHI_GUARDED_BY(mu_) = 0;
  bool shut_down_ VPHI_GUARDED_BY(mu_) = false;
  sim::CondVar doorbell_cv_;
};

}  // namespace vphi::virtio
