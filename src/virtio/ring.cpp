#include "virtio/ring.hpp"

#include <algorithm>
#include <cassert>

#include "sim/fault.hpp"
#include "sim/log.hpp"

namespace vphi::virtio {

namespace {
bool is_pow2(std::uint16_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// virtio 1.0 sec 2.6.7.2: is a notification needed after moving the
/// producer index from `old_idx` to `new_idx`, given the consumer asked to
/// be notified once the index passes `event`? Wraparound-safe in u16.
bool vring_need_event(std::uint16_t event, std::uint16_t new_idx,
                      std::uint16_t old_idx) {
  return static_cast<std::uint16_t>(new_idx - event - 1) <
         static_cast<std::uint16_t>(new_idx - old_idx);
}
}  // namespace

Virtqueue::Virtqueue(std::uint16_t size, MemTranslate translate,
                     std::string label)
    : size_(size),
      translate_(std::move(translate)),
      kick_count_("vphi.ring.kicks", label),
      dropped_kicks_("vphi.ring.kicks_dropped", label),
      poisoned_chains_("vphi.ring.chains_poisoned", label),
      truncated_chains_("vphi.ring.chains_truncated", label),
      inflight_gauge_("vphi.ring.inflight", label),
      occupancy_hist_("vphi.ring.occupancy", label),
      suppressed_kicks_("vphi.ring.kicks_suppressed", label),
      suppressed_irqs_("vphi.ring.irqs_suppressed", label) {
  // Virtio mandates power-of-two queue sizes; a violation is a programming
  // error, not a recoverable condition.
  if (!is_pow2(size)) std::abort();
  table_.resize(size_);
  owner_.resize(size_);
  freed_ts_.resize(size_);
  avail_ring_.resize(size_);
  avail_publish_ts_.resize(size_);
  trace_by_head_.resize(size_);
  used_ring_.resize(size_);
  // Chain all descriptors into the free list.
  for (std::uint16_t i = 0; i < size_; ++i) {
    table_[i].next = static_cast<std::uint16_t>(i + 1);
  }
  free_head_ = 0;
  num_free_ = size_;
}

sim::Expected<std::uint16_t> Virtqueue::alloc_desc_locked() {
  if (num_free_ == 0) return sim::Status::kNoSpace;
  const std::uint16_t d = free_head_;
  free_head_ = table_[d].next;
  --num_free_;
  return d;
}

void Virtqueue::free_chain_locked(std::uint16_t head, sim::Nanos freed_ts) {
  std::uint16_t d = head;
  for (;;) {
    const bool has_next = (table_[d].flags & VIRTQ_DESC_F_NEXT) != 0;
    const std::uint16_t next = table_[d].next;
    table_[d] = Desc{};
    freed_ts_[d] = freed_ts;
    table_[d].next = free_head_;
    free_head_ = d;
    ++num_free_;
    if (!has_next) break;
    d = next;
  }
}

void Virtqueue::set_event_idx(bool enabled) {
  sim::MutexLock lock(mu_);
  event_idx_ = enabled;
}

sim::Expected<std::uint16_t> Virtqueue::add_buf(std::span<const BufferRef> out,
                                                std::span<const BufferRef> in,
                                                sim::Nanos publish_ts,
                                                sim::TraceId trace,
                                                const sim::Actor* submitter) {
  const std::size_t total = out.size() + in.size();
  if (total == 0) return sim::Status::kInvalidArgument;
  sim::MutexLock lock(mu_);
  if (total > num_free_) return sim::Status::kNoSpace;

  std::uint16_t head = 0;
  std::uint16_t prev = 0;
  bool first = true;
  auto link = [&](const BufferRef& ref, bool write) {
    auto d = alloc_desc_locked();
    assert(d.has_value());  // reserved by the num_free_ check
    table_[*d].addr = ref.gpa;
    table_[*d].len = ref.len;
    table_[*d].flags = write ? VIRTQ_DESC_F_WRITE : std::uint16_t{0};
    owner_[*d] = submitter;
    if (first) {
      head = *d;
      first = false;
    } else {
      table_[prev].flags |= VIRTQ_DESC_F_NEXT;
      table_[prev].next = *d;
    }
    prev = *d;
  };
  for (const auto& ref : out) link(ref, false);
  for (const auto& ref : in) link(ref, true);

  avail_ring_[avail_idx_ % size_] = head;
  avail_publish_ts_[avail_idx_ % size_] = publish_ts;
  trace_by_head_[head] = trace;
  ++avail_idx_;
  ++live_chains_;
  inflight_gauge_.add(1);
  // Occupancy sampled at every post: the distribution a tenant's pipelined
  // window actually achieved (observer only, never charges the clock).
  occupancy_hist_.record(static_cast<sim::Nanos>(live_chains_));
  sim::tracer().record(trace, sim::SpanEvent::kAvailPublish, publish_ts);
  return head;
}

Doorbell Virtqueue::kick_prepare() {
  sim::MutexLock lock(mu_);
  const std::uint16_t old_idx = kick_point_;
  kick_point_ = avail_idx_;
  if (event_idx_ &&
      !vring_need_event(avail_event_shadow_, avail_idx_, old_idx)) {
    // An earlier doorbell crossed the device's avail_event and it has not
    // re-armed since: these entries ride that doorbell, delivered or lost.
    suppressed_kicks_.inc();
    if (!doorbell_lost_) notified_idx_ = avail_idx_;
    return Doorbell::kSuppressed;
  }
  if (sim::fault_injector().should_fire(sim::FaultSite::kKickDrop)) {
    // The write never reaches the device: the entries sit in the ring until
    // a delivered kick (the frontend's rescue kick) flushes them through.
    VPHI_LOG(kWarn, "virtio") << "doorbell for avail idx " << avail_idx_
                              << " dropped";
    kick_count_.inc();
    dropped_kicks_.inc();
    doorbell_lost_ = true;
    return Doorbell::kLost;
  }
  doorbell_lost_ = false;
  notified_idx_ = avail_idx_;
  return Doorbell::kRing;
}

void Virtqueue::kick(sim::Nanos visible_ts) {
  kick_count_.inc();
  auto& fi = sim::fault_injector();
  if (fi.should_fire(sim::FaultSite::kKickDelay)) {
    const sim::Nanos delay = fi.delay_ns(sim::FaultSite::kKickDelay);
    VPHI_LOG(kWarn, "virtio") << "kick at " << visible_ts << " delayed by "
                              << delay << "ns";
    visible_ts += delay;
  }
  {
    sim::MutexLock lock(mu_);
    notified_idx_ = avail_idx_;
    doorbell_lost_ = false;
    ++doorbells_;
    doorbell_ts_ = std::max(doorbell_ts_, visible_ts);
  }
  doorbell_cv_.notify_one();
}

sim::Nanos Virtqueue::reuse_ts(std::uint16_t n,
                               const sim::Actor* submitter) const {
  sim::MutexLock lock(mu_);
  if (n > num_free_) return 0;
  sim::Nanos ts = 0;
  std::uint16_t d = free_head_;
  for (std::uint16_t i = 0; i < n; ++i) {
    if (owner_[d] != submitter) ts = std::max(ts, freed_ts_[d]);
    d = table_[d].next;
  }
  return ts;
}

std::optional<UsedElem> Virtqueue::get_used() {
  sim::MutexLock lock(mu_);
  if (used_consumed_ == used_idx_) return std::nullopt;
  UsedElem elem = used_ring_[used_consumed_ % size_];
  ++used_consumed_;
  free_chain_locked(static_cast<std::uint16_t>(elem.id), elem.ts);
  if (live_chains_ > 0) {
    --live_chains_;
    inflight_gauge_.add(-1);
  }
  return elem;
}

void Virtqueue::drain_avail_locked(std::vector<Chain>& out) {
  while (auto chain = try_pop_avail_locked()) {
    out.push_back(std::move(*chain));
  }
}

std::vector<Chain> Virtqueue::pop_avail_batch() {
  // Doorbell-first: the device never scans the ring unprompted, so a chain
  // whose kick was dropped stays stranded until a rescue kick — the
  // lost-doorbell fault semantics depend on it. No suppressed entry can
  // strand across the wait either: the arm below resets the shadow to the
  // consumption point, which makes the *first* publish after every drain
  // ring the doorbell (only the following publishes of a burst are
  // suppressed, and the first one's doorbell covers them all).
  std::vector<Chain> batch;
  sim::MutexLock lock(mu_);
  for (;;) {
    // A doorbell pending at shutdown is still consumed.
    while (doorbells_ == 0 && !shut_down_) doorbell_cv_.wait(mu_);
    if (doorbells_ == 0) return {};  // ring shut down
    --doorbells_;
    drain_avail_locked(batch);
    // Arm avail_event at the consumption point, atomically with the drain
    // (add_buf also runs under mu_): an entry published after this instant
    // sees the armed event and kicks; one published before was caught by
    // the drain above. And because the arm happens *before* this batch's
    // completions are pushed (and therefore before the interrupt that
    // wakes the driver's next submit), a serial driver's next kick_prepare
    // always observes the device re-armed: serial kicks stay deterministic
    // regardless of thread scheduling.
    if (event_idx_) avail_event_shadow_ = avail_consumed_;
    if (batch.empty()) continue;  // spurious doorbell (e.g. a rescue kick
                                  // racing a completion): re-arm and wait
    // Consume the extra doorbells that belong to entries just drained (a
    // multi-kick burst collapses into one batch): any doorbell pending at
    // this instant was delivered after its entry became visible (publish
    // happens-before kick), so that entry is in `batch`. Leaving them
    // pending would let them masquerade later as fresh doorbells and
    // "rescue" a chain whose kick was genuinely dropped.
    doorbells_ = 0;
    for (auto& chain : batch) {
      chain.kick_ts = std::max(chain.kick_ts, doorbell_ts_);
    }
    return batch;
  }
}

std::optional<Chain> Virtqueue::try_pop_avail() {
  sim::MutexLock lock(mu_);
  return try_pop_avail_locked();
}

std::optional<Chain> Virtqueue::try_pop_avail_locked() {
  auto& fi = sim::fault_injector();
  // Simulated guest-side corruption: the device walk behaves as if the
  // chain's terminator pointed back at its head. Only the walk's *view* is
  // bent — the descriptor table stays intact so completion still recycles
  // the chain correctly.
  const bool inject_cycle = fi.should_fire(sim::FaultSite::kCycleChain);
  const bool inject_truncate = fi.should_fire(sim::FaultSite::kTruncateChain);

  if (avail_consumed_ == avail_idx_) return std::nullopt;
  const std::uint16_t head = avail_ring_[avail_consumed_ % size_];
  const sim::Nanos publish_ts = avail_publish_ts_[avail_consumed_ % size_];
  ++avail_consumed_;

  Chain chain;
  chain.head = head;
  chain.trace = trace_by_head_[head];
  // Lower bound for the device's view of the entry: when the doorbell is
  // suppressed (EVENT_IDX) no doorbell timestamp exists, so the publish time
  // carries the causality instead. pop_avail_batch still max()es this with
  // the doorbell time when one was delivered.
  chain.kick_ts = publish_ts;
  std::uint16_t d = head;
  std::uint16_t walked = 0;
  for (;;) {
    // The descriptor table is guest-writable shared memory: a corrupted (or
    // hostile) `next` can point outside the table or form a cycle. Cap the
    // walk at size_ segments — a well-formed chain can never be longer —
    // and poison anything that exceeds it instead of spinning forever.
    if (d >= size_ || walked == size_) {
      chain.poisoned = true;
      poisoned_chains_.inc();
      VPHI_LOG(kWarn, "virtio")
          << "descriptor walk from head " << head
          << " exceeded " << size_ << " segments: poisoning chain";
      break;
    }
    ++walked;
    const Desc& desc = table_[d];
    void* ptr = translate_ ? translate_(desc.addr, desc.len) : nullptr;
    chain.segments.push_back(
        Chain::Segment{ptr, desc.len, (desc.flags & VIRTQ_DESC_F_WRITE) != 0});
    if ((desc.flags & VIRTQ_DESC_F_NEXT) == 0) {
      if (!inject_cycle) break;
      d = head;  // injected corruption: terminator loops back to the head
      continue;
    }
    d = desc.next;
  }
  if (inject_truncate && chain.segments.size() > 1) {
    chain.segments.pop_back();
    truncated_chains_.inc();
    VPHI_LOG(kWarn, "virtio") << "chain from head " << head
                              << " truncated to " << chain.segments.size()
                              << " segment(s)";
  }
  return chain;
}

bool Virtqueue::arm_used_event() {
  sim::MutexLock lock(mu_);
  if (!event_idx_) return false;
  used_event_shadow_ = used_consumed_;
  // Arm-then-recheck: a completion pushed between the caller's last drain
  // and this arm had its interrupt suppressed; tell the caller to re-drain
  // instead of sleeping on an IRQ that will never come.
  return used_idx_ != used_consumed_;
}

bool Virtqueue::should_interrupt() {
  sim::MutexLock lock(mu_);
  if (!event_idx_) {
    used_signal_point_ = used_idx_;
    return true;
  }
  if (vring_need_event(used_event_shadow_, used_idx_, used_signal_point_)) {
    used_signal_point_ = used_idx_;
    return true;
  }
  suppressed_irqs_.inc();
  return false;
}

sim::Status Virtqueue::push_used(std::uint16_t head, std::uint32_t written,
                                 sim::Nanos done_ts) {
  sim::MutexLock lock(mu_);
  if (head >= size_) return sim::Status::kInvalidArgument;
  used_ring_[used_idx_ % size_] = UsedElem{head, written, done_ts};
  ++used_idx_;
  sim::tracer().record(trace_by_head_[head], sim::SpanEvent::kUsedPublish,
                       done_ts);
  trace_by_head_[head] = 0;
  return sim::Status::kOk;
}

void Virtqueue::shutdown() {
  {
    sim::MutexLock lock(mu_);
    shut_down_ = true;
  }
  doorbell_cv_.notify_all();
}

bool Virtqueue::stranded(std::uint16_t pos) const {
  sim::MutexLock lock(mu_);
  // Distances from the device's consumption point (16-bit ring indices).
  const auto published =
      static_cast<std::uint16_t>(avail_idx_ - avail_consumed_);
  const auto at = static_cast<std::uint16_t>(pos - avail_consumed_);
  if (at >= published) return false;  // consumed (or never published)
  auto covered = static_cast<std::uint16_t>(notified_idx_ - avail_consumed_);
  if (covered > published) covered = 0;  // the device drained past it
  return at >= covered;
}

std::uint16_t Virtqueue::free_descriptors() const {
  sim::MutexLock lock(mu_);
  return num_free_;
}

std::uint16_t Virtqueue::avail_idx() const {
  sim::MutexLock lock(mu_);
  return avail_idx_;
}

}  // namespace vphi::virtio
