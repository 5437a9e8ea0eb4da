#include "vphi/frontend.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/fault.hpp"
#include "sim/log.hpp"
#include "sim/recorder.hpp"
#include "virtio/device.hpp"
#include "virtio/ring.hpp"

namespace vphi::core {

namespace {
/// RAII for kmalloc'd guest buffers.
class KmallocGuard {
 public:
  KmallocGuard() = default;
  KmallocGuard(hv::GuestPhysMem& ram, std::uint64_t gpa) : ram_(&ram), gpa_(gpa) {}
  ~KmallocGuard() {
    if (ram_ != nullptr) ram_->kfree(gpa_);
  }
  KmallocGuard(KmallocGuard&& other) noexcept
      : ram_(other.ram_), gpa_(other.gpa_) {
    other.ram_ = nullptr;
  }
  KmallocGuard& operator=(KmallocGuard&& other) noexcept {
    if (this != &other) {
      if (ram_ != nullptr) ram_->kfree(gpa_);
      ram_ = other.ram_;
      gpa_ = other.gpa_;
      other.ram_ = nullptr;
    }
    return *this;
  }
  std::uint64_t gpa() const noexcept { return gpa_; }
  /// Give up ownership without freeing (the gpa moves to the zombie list).
  std::uint64_t release() noexcept {
    ram_ = nullptr;
    return gpa_;
  }

 private:
  hv::GuestPhysMem* ram_ = nullptr;
  std::uint64_t gpa_ = 0;
};

/// Ops safe to transparently replay after a transport fault: they either
/// read device state or re-assert it (a duplicate open leaks nothing the
/// guest cannot close; a duplicate bind of the same port is rejected by the
/// provider, not silently doubled).
constexpr bool idempotent_op(Op op) noexcept {
  switch (op) {
    case Op::kOpen:
    case Op::kBind:
    case Op::kGetNodeIds:
    case Op::kCardInfo:
      return true;
    default:
      return false;
  }
}
}  // namespace

FrontendDriver::OpCounters::OpCounters(Op op, const std::string& label)
    : errors(std::string("vphi.fe.op.") + op_name(op) + ".errors", label),
      timeouts(std::string("vphi.fe.op.") + op_name(op) + ".timeouts", label),
      retries(std::string("vphi.fe.op.") + op_name(op) + ".retries", label) {}

FrontendDriver::OpCounters& FrontendDriver::op_counters_locked(Op op) {
  return counters_.try_emplace(op, op, label_).first->second;
}

FrontendDriver::QueueState::QueueState(const std::string& vm_name,
                                       std::uint16_t idx)
    : index(idx),
      requests("vphi.queue.requests",
               "vm=" + vm_name + ",q=" + std::to_string(idx)),
      completions("vphi.queue.completions",
                  "vm=" + vm_name + ",q=" + std::to_string(idx)),
      timeouts("vphi.queue.timeouts",
               "vm=" + vm_name + ",q=" + std::to_string(idx)),
      bytes_out("vphi.queue.bytes_out",
                "vm=" + vm_name + ",q=" + std::to_string(idx)),
      ring_full("vphi.queue.ring_full",
                "vm=" + vm_name + ",q=" + std::to_string(idx)) {}

const char* wait_scheme_name(WaitScheme scheme) noexcept {
  switch (scheme) {
    case WaitScheme::kInterrupt: return "interrupt";
    case WaitScheme::kPolling: return "polling";
    case WaitScheme::kHybrid: return "hybrid";
  }
  return "unknown";
}

FrontendDriver::FrontendDriver(hv::Vm& vm, Config config)
    : vm_(&vm),
      config_(config),
      label_("vm=" + vm.name()),
      requests_("vphi.fe.requests", label_),
      interrupt_waits_("vphi.fe.interrupt_waits", label_),
      polled_waits_("vphi.fe.polled_waits", label_),
      timeouts_("vphi.fe.timeouts", label_),
      retries_("vphi.fe.retries", label_),
      protocol_errors_("vphi.fe.protocol_errors", label_),
      fast_reaps_("vphi.fe.fast_reaps", label_),
      poll_cpu_burn_ns_("vphi.fe.poll_cpu_burn_ns", label_),
      bytes_out_("vphi.fe.bytes_out", label_),
      bytes_in_("vphi.fe.bytes_in", label_),
      zombie_chains_("vphi.fe.zombie_chains", label_),
      request_latency_("vphi.fe.request_latency_ns", label_),
      watchdog_stalls_("vphi.watchdog.stalls", label_),
      watchdog_budget_ns_("vphi.watchdog.budget_ns", label_),
      watchdog_armed_("vphi.watchdog.armed", label_) {
  const std::uint16_t queues = vm.num_queues();
  queues_.reserve(queues);
  for (std::uint16_t qi = 0; qi < queues; ++qi) {
    queues_.push_back(std::make_unique<QueueState>(vm.name(), qi));
  }
}

FrontendDriver::~FrontendDriver() {
  if (probed_) {
    for (std::uint16_t qi = 0; qi < num_queues(); ++qi) {
      vm_->set_irq_handler(qi, nullptr);
    }
  }
  // A guest thread that Vm::shutdown() just woke may still be walking out
  // of transact()/wait(); it touches the queue state on the way. Block
  // until every such caller has left driver code.
  sim::MutexLock lock(active_mu_);
  while (active_calls_ != 0) active_cv_.wait(active_mu_);
}

sim::Status FrontendDriver::probe() {
  auto& status = vm_->device_status();
  status.set(virtio::VIRTIO_STATUS_ACKNOWLEDGE);
  status.set(virtio::VIRTIO_STATUS_DRIVER);
  // VIRTIO_F_EVENT_IDX: the driver skips doorbells while the device is
  // already draining and the device coalesces completion interrupts per
  // batch (virtio 1.0 sec 2.6.7).
  const std::uint64_t wanted =
      virtio::VIRTIO_F_VERSION_1 | virtio::VPHI_F_SCIF |
      virtio::VPHI_F_MMAP_PFN | virtio::VPHI_F_SYSFS_INFO |
      virtio::VIRTIO_F_EVENT_IDX;
  if (!status.negotiate(wanted & status.offered_features())) {
    return sim::Status::kNoDevice;
  }
  status.set(virtio::VIRTIO_STATUS_DRIVER_OK);
  const bool event_idx =
      (status.accepted_features() & virtio::VIRTIO_F_EVENT_IDX) != 0;
  // One ISR per queue, mirroring per-queue MSI-X vectors: an interrupt on
  // queue q drains only queue q, so queues never serialize on a shared ISR.
  for (std::uint16_t qi = 0; qi < num_queues(); ++qi) {
    vm_->vq(qi).set_event_idx(event_idx);
    vm_->set_irq_handler(
        qi, [this, qi](sim::Nanos irq_ts) { on_irq(qi, irq_ts); });
  }
  probed_.store(true, std::memory_order_release);
  return sim::Status::kOk;
}

bool FrontendDriver::use_polling(std::size_t payload) const {
  switch (config_.scheme) {
    case WaitScheme::kInterrupt: return false;
    case WaitScheme::kPolling: return true;
    case WaitScheme::kHybrid: return payload < kHybridThreshold;
  }
  return false;
}

void FrontendDriver::drain_used(std::uint16_t queue, sim::Nanos ts_floor) {
  QueueState& q = queue_state(queue);
  // q.mu must already be held when get_used() runs: get_used frees the
  // chain's descriptors, and the head->request match below has to be atomic
  // with that free — otherwise another thread can reuse the head (add_buf
  // also runs under q.mu) and the old chain's used entry would be matched
  // to the new request, handing it a response that was never written and
  // losing the old request's completion. Lock order is q.mu -> ring lock on
  // both paths.
  sim::MutexLock lock(q.mu);
  for (;;) {
    while (auto used = vm_->vq(queue).get_used()) {
      const auto head = static_cast<std::uint16_t>(used->id);
      if (auto z = q.zombies.find(head); z != q.zombies.end()) {
        // A timed-out request's chain finally completed: its parked bounce
        // buffers are safe to recycle now that the device is done with them.
        for (const std::uint64_t gpa : z->second) vm_->ram().kfree(gpa);
        q.zombies.erase(z);
        zombie_chains_.add(-1);
        if (q.zombies.empty()) q.zombies_gone.notify_all();
        continue;
      }
      auto owner = q.inflight.find(head);
      if (owner == q.inflight.end()) continue;  // stale/cancelled request
      const std::uint64_t seq = owner->second;
      q.inflight.erase(owner);
      auto it = q.pending.find(seq);
      if (it == q.pending.end()) continue;  // owner gave up (timed out)
      Pending& p = it->second;
      p.completed = true;
      p.used_ts = used->ts;
      p.done_ts = std::max(used->ts, ts_floor);
      charge_virq(p);
      p.written = used->len;
      q.completions.inc();
      if (p.interrupt_wait) vm_->kernel().waitq().complete(p.ticket, p.done_ts);
    }
    // EVENT_IDX re-arm (the NAPI pattern): this drain consumed the used
    // index the sleeping waiters' used_event pointed at, so completions
    // pushed from here on would be suppressed against a stale shadow. If
    // any interrupt waiter is still in flight, advance the armed point to
    // the new consumption index — and if the device raced a push in
    // between, loop and drain that too instead of waiting for an IRQ that
    // was already suppressed.
    // A parked zombie counts too: its chain's completion must still reach
    // this drain to recycle the buffers, and once the waiter that timed
    // out has left nobody else may ever arm for it.
    bool sleeper = !q.zombies.empty();
    for (const auto& [seq, p] : q.pending) {
      if (p.interrupt_wait && !p.completed) {
        sleeper = true;
        break;
      }
    }
    if (!sleeper || !vm_->vq(queue).arm_used_event()) break;
  }
  watchdog_scan_locked(q);
}

sim::Nanos FrontendDriver::watchdog_budget_locked(QueueState& q) {
  // Throttle the histogram snapshot: a tight poll loop scans every spin,
  // and the budget only drifts as new completions land.
  if (q.watchdog_budget_cache != 0 && ++q.watchdog_scan_tick < 32) {
    return q.watchdog_budget_cache;
  }
  if (q.watchdog_budget_cache == 0 && ++q.watchdog_scan_tick < 32) return 0;
  q.watchdog_scan_tick = 0;
  const sim::Histogram h = request_latency_.snapshot();
  if (h.count() < config_.watchdog_min_samples) return q.watchdog_budget_cache;
  q.watchdog_budget_cache = std::max<sim::Nanos>(
      1, static_cast<sim::Nanos>(h.percentile(0.99) * kWatchdogMultiplier));
  watchdog_budget_ns_.set(q.watchdog_budget_cache);
  // Armed the moment the first budget is derivable; set() is idempotent, so
  // the gauge flips 0 -> 1 exactly once and never back.
  watchdog_armed_.set(1);
  return q.watchdog_budget_cache;
}

void FrontendDriver::charge_virq(Pending& p) const {
  if (p.interrupt_wait && p.completed && p.used_ts > p.armed_ts) {
    p.done_ts =
        std::max(p.done_ts, p.used_ts + vm_->model().irq_inject_ns);
  }
}

void FrontendDriver::watchdog_scan_locked(QueueState& q) {
  const sim::Nanos budget = watchdog_budget_locked(q);
  if (budget <= 0) return;
  const sim::Actor& me = sim::this_actor();
  const sim::Nanos now = me.now();
  for (auto& [seq, p] : q.pending) {
    if (p.completed || p.stall_flagged || p.submitter != &me) continue;
    const sim::Nanos age = now - p.submit_ts;
    if (age <= budget || !vm_->vq(q.index).stranded(p.avail_pos)) continue;
    p.stall_flagged = true;  // fires exactly once per request
    watchdog_stalls_.inc();
    VPHI_LOG(kWarn, "vphi-fe")
        << "watchdog: op " << op_name(p.op) << " seq=" << seq
        << " in flight " << age << " ns > budget " << budget << " ns";
    sim::flight_recorder().dump(
        std::string("watchdog stall: op ") + op_name(p.op), p.trace);
  }
}

void FrontendDriver::on_irq(std::uint16_t queue, sim::Nanos irq_ts) {
  drain_used(queue, irq_ts);
}

sim::Expected<FrontendDriver::TransactResult> FrontendDriver::transact(
    sim::Actor& actor, const TransactArgs& args) {
  ActiveCall active{*this};
  const Op op = args.header.op;
  const bool retryable_op =
      config_.request_timeout_ns > 0 && idempotent_op(op);
  for (std::uint32_t attempt = 0;; ++attempt) {
    sim::Status st;
    auto token = submit(actor, args);
    if (token.has_value()) {
      auto result = wait(actor, *token);
      if (result.has_value()) return result;
      st = result.status();
    } else {
      st = token.status();
    }
    // Failure accounting already happened inside submit()/wait(). Only
    // transport-level failures are worth replaying; a real backend error
    // (kNoSuchEntry, kConnRefused, ...) would just repeat.
    const bool transport_fault =
        st == sim::Status::kTimedOut || st == sim::Status::kIoError;
    if (!retryable_op || !transport_fault ||
        attempt >= kMaxRetries) {
      return st;
    }
    {
      sim::MutexLock lock(op_mu_);
      op_counters_locked(op).retries.inc();
    }
    retries_.inc();
    VPHI_LOG(kWarn, "vphi-fe")
        << "op " << op_name(op) << " failed with " << sim::to_string(st)
        << "; retry " << attempt + 1 << "/" << kMaxRetries;
  }
}

sim::Expected<FrontendDriver::Token> FrontendDriver::submit(
    sim::Actor& actor, const TransactArgs& args) {
  ActiveCall active{*this};
  auto token = submit_once(actor, args);
  if (!token.has_value()) {
    if (token.status() == sim::Status::kNoSpace) {
      // A full ring is flow control, not failure: the pipelined chunk
      // walks reap a completion and resubmit. Folding it into the per-op
      // error counters would make a healthy saturated queue look broken,
      // so it gets its own per-queue counter instead.
      queue_state(queue_for(args.header.epd)).ring_full.inc();
    } else {
      record_failure(args.header.op, queue_for(args.header.epd),
                     token.status());
    }
  }
  return token;
}

sim::Expected<FrontendDriver::TransactResult> FrontendDriver::wait(
    sim::Actor& actor, Token token) {
  ActiveCall active{*this};
  if (token.queue >= queues_.size()) return sim::Status::kInvalidArgument;
  Op op = Op::kOpen;
  bool known = false;
  {
    QueueState& q = queue_state(token.queue);
    sim::MutexLock lock(q.mu);
    auto it = q.pending.find(token.seq);
    if (it != q.pending.end()) {
      op = it->second.op;
      known = true;
    }
  }
  auto result = wait_once(actor, token);
  if (!result.has_value() && known) {
    record_failure(op, token.queue, result.status());
  }
  return result;
}

void FrontendDriver::quiesce() {
  for (const auto& q : queues_) {
    sim::MutexLock lock(q->mu);
    while (!q->zombies.empty()) q->zombies_gone.wait(q->mu);
  }
}

void FrontendDriver::record_failure(Op op, std::uint16_t queue,
                                    sim::Status st) {
  {
    sim::MutexLock lock(op_mu_);
    auto& c = op_counters_locked(op);
    c.errors.inc();
    if (st == sim::Status::kTimedOut) c.timeouts.inc();
  }
  if (st == sim::Status::kTimedOut) {
    timeouts_.inc();
    if (queue < queues_.size()) queue_state(queue).timeouts.inc();
  }
}

void FrontendDriver::forget_inflight_locked(QueueState& q, std::uint16_t head,
                                            std::uint64_t seq) {
  if (auto f = q.inflight.find(head);
      f != q.inflight.end() && f->second == seq) {
    q.inflight.erase(f);
  }
}

void FrontendDriver::free_buffers(Pending& req) {
  for (const std::uint64_t gpa : req.gpas) vm_->ram().kfree(gpa);
  req.gpas.clear();
}

sim::Expected<FrontendDriver::Token> FrontendDriver::submit_once(
    sim::Actor& actor, const TransactArgs& args) {
  if (!probed_) return sim::Status::kNoDevice;
  if (args.out_len > chunk_size() || args.in_len > chunk_size()) {
    return sim::Status::kInvalidArgument;
  }
  const auto& m = vm_->model();
  auto& ram = vm_->ram();
  const std::uint16_t queue = queue_for(args.header.epd);
  QueueState& q = queue_state(queue);

  // Probe the descriptor table before staging anything: a submitter backing
  // off a full queue learns that from the ring state alone — re-paying the
  // prepare cost (and allocating bounce buffers and a trace span) on every
  // backpressure retry would charge the guest for work a stopped queue
  // never does. The probe is advisory; add_buf below still rules under the
  // ring lock, and a lost race lands in the same kNoSpace path at full
  // cost.
  {
    const std::uint16_t need =
        static_cast<std::uint16_t>((args.out_len > 0 ? 2 : 1) +
                                   (args.in_len > 0 ? 2 : 1));
    if (vm_->vq(queue).free_descriptors() < need) {
      return sim::Status::kNoSpace;
    }
  }

  // Allocate the request's trace context before any cost is charged, so the
  // kSubmit-to-kComplete span is the whole driver round trip. Tracing never
  // advances `actor`, so enabling it does not move a single simulated
  // number.
  const sim::Nanos submit_ts = actor.now();
  const sim::TraceId trace =
      sim::tracer().begin_request(op_name(args.header.op), submit_ts);

  actor.advance(m.fe_prepare_ns);

  // Stage the request header (+ outbound payload) in kmalloc'd memory.
  auto req_gpa = ram.kmalloc(sizeof(RequestHeader));
  if (!req_gpa) return req_gpa.status();
  KmallocGuard req_guard{ram, *req_gpa};
  RequestHeader header = args.header;
  header.payload_len = static_cast<std::uint32_t>(args.out_len);
  std::memcpy(ram.translate(*req_gpa, sizeof(RequestHeader)), &header,
              sizeof(RequestHeader));
  if (sim::fault_injector().should_fire(sim::FaultSite::kCorruptRequestHeader,
                                        trace)) {
    // Scribble over the staged header after the driver wrote it — models a
    // hostile or buggy guest mutating the in-flight request. The backend's
    // validator must reject both the unknown op and the lying payload_len.
    auto* h = static_cast<RequestHeader*>(
        ram.translate(*req_gpa, sizeof(RequestHeader)));
    h->op = static_cast<Op>(0xDEADBEEFu);
    h->payload_len = 0xFFFF'FFFFu;
  }

  KmallocGuard out_guard;
  std::uint64_t out_gpa = 0;
  // The header copy plus (for the send/write path) the user data copy into
  // the bounce buffer — copy 3i of the paper's Fig. 3.
  actor.advance(m.fe_copy_fixed_ns +
                sim::transfer_time(args.out_len, m.guest_memcpy_Bps));
  if (args.out_len > 0) {
    auto gpa = ram.kmalloc(args.out_len);
    if (!gpa) return gpa.status();
    out_gpa = *gpa;
    out_guard = KmallocGuard{ram, out_gpa};
    std::memcpy(ram.translate(out_gpa, args.out_len), args.out_payload,
                args.out_len);
  }

  // Response header + inbound bounce buffer.
  auto resp_gpa = ram.kmalloc(sizeof(ResponseHeader));
  if (!resp_gpa) return resp_gpa.status();
  KmallocGuard resp_guard{ram, *resp_gpa};
  KmallocGuard in_guard;
  std::uint64_t in_gpa = 0;
  if (args.in_len > 0) {
    auto gpa = ram.kmalloc(args.in_len);
    if (!gpa) return gpa.status();
    in_gpa = *gpa;
    in_guard = KmallocGuard{ram, in_gpa};
  }

  // Build and post the chain.
  virtio::BufferRef out_refs[2] = {
      {*req_gpa, static_cast<std::uint32_t>(sizeof(RequestHeader))},
      {out_gpa, static_cast<std::uint32_t>(args.out_len)},
  };
  virtio::BufferRef in_refs[2] = {
      {*resp_gpa, static_cast<std::uint32_t>(sizeof(ResponseHeader))},
      {in_gpa, static_cast<std::uint32_t>(args.in_len)},
  };
  const std::size_t n_out = args.out_len > 0 ? 2 : 1;
  const std::size_t n_in = args.in_len > 0 ? 2 : 1;

  const bool polling =
      use_polling(std::max(args.out_len, args.in_len));
  std::uint64_t ticket = 0;
  if (!polling) ticket = vm_->kernel().waitq().prepare(&actor);

  std::uint16_t head;
  std::uint64_t seq;
  {
    // q.mu is held *across* the publish: the instant add_buf makes the
    // avail entry visible, a backend kicked by another thread may pop,
    // execute and push the used entry — and a concurrent drain_used would
    // drop it as stale before q.pending records the request. get_used()
    // releases the ring lock before drain_used takes q.mu, so that drain
    // blocks here until the entry exists (no lock-order cycle).
    sim::MutexLock lock(q.mu);
    // The descriptors add_buf is about to take are usable only from the
    // completion that freed them. On a queue several vCPUs share, that may
    // be another vCPU's completion, later than this vCPU's clock. (q.mu
    // keeps the free list unchanged until add_buf.)
    actor.sync_to(vm_->vq(queue).reuse_ts(
        static_cast<std::uint16_t>(n_out + n_in), &actor));
    const sim::Nanos publish_ts = actor.now() + m.virtio_enqueue_ns;
    auto posted = vm_->vq(queue).add_buf({out_refs, n_out}, {in_refs, n_in},
                                         publish_ts, trace, &actor);
    if (!posted) {
      if (!polling) vm_->kernel().waitq().cancel(ticket);
      return posted.status();
    }
    head = *posted;
    seq = q.next_seq++;
    // add_buf runs under q.mu, so the entry just published is the newest.
    const auto avail_pos =
        static_cast<std::uint16_t>(vm_->vq(queue).avail_idx() - 1);
    Pending p;
    p.ticket = ticket;
    p.interrupt_wait = !polling;
    p.op = args.header.op;
    p.head = head;
    p.in_payload = args.in_payload;
    p.in_len = args.in_len;
    p.resp_gpa = *resp_gpa;
    p.in_gpa = in_gpa;
    p.gpas.push_back(req_guard.release());
    if (args.out_len > 0) p.gpas.push_back(out_guard.release());
    p.gpas.push_back(resp_guard.release());
    if (args.in_len > 0) p.gpas.push_back(in_guard.release());
    p.trace = trace;
    p.submit_ts = submit_ts;
    p.submitter = &actor;
    p.avail_pos = avail_pos;
    q.pending.emplace(seq, std::move(p));
    q.inflight[head] = seq;
    requests_.inc();
    bytes_out_.inc(args.out_len);
    q.requests.inc();
    q.bytes_out.inc(args.out_len);
  }

  actor.advance(m.virtio_enqueue_ns);
  // Sample the watermark *before* ringing the doorbell: the raise publishes
  // this request's kick timestamp to the device side, and a backend thread
  // that wakes promptly syncs its actor to it — if that includes an injected
  // kick delay, reading the watermark afterwards would fold the request's
  // own delay into its own deadline and the timeout could never fire
  // (observed as a TSan-scheduling-dependent flake in the fault sweep).
  const sim::Nanos watermark_anchor = sim::watermark();
  const virtio::Doorbell bell = vm_->vq(queue).kick_prepare();
  if (bell != virtio::Doorbell::kSuppressed) {
    const sim::Nanos kick_ts = vm_->kick_cost(actor);
    // Every doorbell written appears in the trace, a lost one too: a
    // suppressed kick leaves the hop out, which is exactly how the
    // EVENT_IDX win shows up in the per-hop breakdown.
    sim::tracer().record(trace, sim::SpanEvent::kKick, kick_ts);
    if (bell == virtio::Doorbell::kRing) vm_->vq(queue).kick(kick_ts);
  }
  // else: EVENT_IDX said the device is already draining — the published
  // entry rides the batch it is working through, no vmexit charged.

  if (config_.request_timeout_ns > 0) {
    // The deadline is anchored at the simulation watermark, not the
    // caller's own clock: device-side actors (backend workers, peer
    // endpoints) may legitimately sit ahead of this vCPU's timeline, and a
    // completion they stamp is not "late" just because the caller's clock
    // lags. Only genuine extra delay beyond the newest time in the system
    // counts against the timeout — which is why the anchor was sampled
    // before the kick above.
    const sim::Nanos deadline =
        std::max(actor.now(), watermark_anchor) + config_.request_timeout_ns;
    sim::MutexLock lock(q.mu);
    auto it = q.pending.find(seq);
    if (it != q.pending.end()) it->second.deadline = deadline;
  }
  return Token{seq, queue};
}

sim::Expected<FrontendDriver::TransactResult> FrontendDriver::wait_once(
    sim::Actor& actor, Token token) {
  if (!probed_) return sim::Status::kNoDevice;
  if (token.queue >= queues_.size()) return sim::Status::kInvalidArgument;
  const auto& m = vm_->model();
  const std::uint16_t queue = token.queue;
  QueueState& q = queue_state(queue);

  Pending req;
  enum class Path { kFast, kInterrupt, kPolling } path;
  std::uint64_t ticket = 0;
  sim::Nanos deadline = 0;
  Op op = Op::kOpen;
  std::uint16_t head = 0;
  std::uint16_t avail_pos = 0;
  {
    sim::MutexLock lock(q.mu);
    auto it = q.pending.find(token.seq);
    if (it == q.pending.end()) return sim::Status::kNoSuchEntry;
    Pending& p = it->second;
    if (p.completed && p.done_ts <= actor.now() &&
        (p.deadline == 0 || p.done_ts <= p.deadline)) {
      // Pipelined reap: the completion is already in this vCPU's past (the
      // coalesced interrupt of an earlier chunk in the window drained it),
      // so there is no sleep and no per-chunk wakeup cost — just the
      // used-ring bookkeeping.
      path = Path::kFast;
      req = std::move(p);
      q.pending.erase(it);
      fast_reaps_.inc();
    } else {
      path = p.interrupt_wait ? Path::kInterrupt : Path::kPolling;
      if (p.interrupt_wait) {
        // The arm below happens now in simulated time. An entry another
        // drain already reaped (a sibling's recheck, an earlier chunk's
        // wait) may need its vIRQ charge now that the arm time is known;
        // re-completing moves the ticket's wakeup to the new stamp.
        p.armed_ts = actor.now();
        charge_virq(p);
        if (p.completed) vm_->kernel().waitq().complete(p.ticket, p.done_ts);
      }
      ticket = p.ticket;
      deadline = p.deadline;
      op = p.op;
      head = p.head;
      avail_pos = p.avail_pos;
    }
  }

  if (path == Path::kFast) {
    if (req.interrupt_wait) vm_->kernel().waitq().cancel(req.ticket);
    actor.advance(m.pipeline_reap_ns);
    sim::tracer().record(req.trace, sim::SpanEvent::kWakeup, actor.now());
    return finish(actor, req);
  }

  if (path == Path::kInterrupt) {
    interrupt_waits_.inc();
    // Arm-then-recheck (EVENT_IDX): arm used_event so the next completion
    // interrupts us; while the arm reports used entries already pending
    // (their interrupt was suppressed before we armed in host time), drain
    // them ourselves instead of sleeping on an IRQ that will never come.
    // charge_virq keeps the wakeup where simulated time puts it.
    while (vm_->vq(queue).arm_used_event()) drain_used(queue, 0);
    // A stranded chain never reaches the device, so its interrupt never
    // comes: a request with a deadline is lost instead of put to sleep.
    // Coverage only grows until the device consumes the chain: one look.
    if (deadline != 0 && vm_->vq(queue).stranded(avail_pos)) {
      vm_->kernel().waitq().cancel(ticket);
      const sim::Status st =
          claim_or_lose(actor, token, head, op, deadline, req);
      if (!sim::ok(st)) return st;
      // Another vCPU's doorbell flushed the chain after the look: resume
      // at the completion.
      actor.sync_to(std::min(req.done_ts, deadline));
    } else if (const sim::Status waited =
                   vm_->kernel().waitq().wait(ticket, actor);
               !sim::ok(waited)) {
      sim::MutexLock lock(q.mu);
      auto it = q.pending.find(token.seq);
      if (it != q.pending.end()) {
        req = std::move(it->second);
        q.pending.erase(it);
        forget_inflight_locked(q, head, token.seq);
        free_buffers(req);
      }
      return waited;
    } else {
      sim::MutexLock lock(q.mu);
      auto it = q.pending.find(token.seq);
      // The completion normally leaves the entry in place for this (sole)
      // waiter — but a concurrent teardown path may have swept it. Moving
      // from pending.end() would be undefined behavior, so a vanished
      // entry is reported, not dereferenced.
      if (it == q.pending.end()) return sim::Status::kNoSuchEntry;
      req = std::move(it->second);
      q.pending.erase(it);
    }
  } else {
    // Busy-wait on the used ring. Host probes cost no simulated time: a
    // backend thread waiting for a host CPU must not age this vCPU. Once
    // the outcome is known, the spin is charged as a real one would run —
    // poll_spin_ns per probe up to the first probe at or after the used
    // entry's time (at least one), or up to the deadline if it is missed.
    // A request with a deadline stops probing once its chain is stranded:
    // no doorbell will take it to the device.
    polled_waits_.inc();
    const sim::Nanos spin_start = actor.now();
    const auto completed = [&q, seq = token.seq] {
      sim::MutexLock lock(q.mu);
      auto it = q.pending.find(seq);
      return it != q.pending.end() && it->second.completed;
    };
    for (;;) {
      drain_used(queue, 0);
      if (completed() ||
          (deadline != 0 && vm_->vq(queue).stranded(avail_pos))) {
        break;
      }
      std::this_thread::yield();
    }
    const sim::Status st =
        claim_or_lose(actor, token, head, op, deadline, req);
    if (sim::ok(st)) {
      const sim::Nanos probes = std::max<sim::Nanos>(
          1, (req.done_ts - spin_start + m.poll_spin_ns - 1) / m.poll_spin_ns);
      const bool late = deadline != 0 && req.done_ts > deadline;
      actor.sync_to(late ? deadline : spin_start + probes * m.poll_spin_ns);
    }
    poll_cpu_burn_ns_.inc(actor.now() - spin_start);
    if (!sim::ok(st)) return st;
  }

  if (deadline != 0 && req.done_ts > deadline) {
    // The completion surfaced, but past the simulated deadline (e.g. a
    // delayed doorbell): the driver would have given up at `deadline`.
    VPHI_LOG(kWarn, "vphi-fe")
        << "op " << op_name(op) << " head=" << head << " completed at "
        << req.done_ts << " > deadline " << deadline;
    sim::flight_recorder().dump(
        std::string("frontend timeout (late completion): op ") + op_name(op),
        req.trace);
    free_buffers(req);
    return sim::Status::kTimedOut;
  }

  // Both surviving paths resumed the guest context at actor.now(): after
  // the waitq wait (which charged IRQ visibility + ISR + wakeup-scheme
  // costs) or after the charged spin.
  sim::tracer().record(req.trace, sim::SpanEvent::kWakeup, actor.now());
  return finish(actor, req);
}

sim::Status FrontendDriver::claim_or_lose(sim::Actor& actor, Token token,
                                          std::uint16_t head, Op op,
                                          sim::Nanos deadline, Pending& req) {
  QueueState& q = queue_state(token.queue);
  {
    sim::MutexLock lock(q.mu);
    auto it = q.pending.find(token.seq);
    if (it != q.pending.end() && it->second.completed) {
      req = std::move(it->second);
      q.pending.erase(it);
      return sim::Status::kOk;
    }
    // Lost in the transport: the chain is stranded, and the driver would
    // sleep or spin until its deadline. Charge that simulated timeout, and
    // give the watchdog its look at the stranded chain while the entry
    // still pends.
    actor.sync_to(deadline);
    watchdog_scan_locked(q);
    // The entry can already be gone (swept by a teardown path); only park
    // what is actually still tracked.
    if (it != q.pending.end()) {
      req = std::move(it->second);
      q.pending.erase(it);
      forget_inflight_locked(q, head, token.seq);
      q.zombies[head] = std::move(req.gpas);
      zombie_chains_.add(1);
    }
  }
  // Rescue kick: if the doorbell was dropped (or suppressed along with it),
  // the avail entry is still stranded in the ring — re-ring so the device
  // processes it and its descriptors come back. Bypasses kick_prepare on
  // purpose.
  vm_->vq(token.queue).kick(actor.now());
  // The parked zombie buffers are freed when the chain's used entry finally
  // surfaces; make sure that completion reaches us even under interrupt
  // suppression (no other waiter may ever arm).
  if (vm_->vq(token.queue).arm_used_event()) drain_used(token.queue, 0);
  VPHI_LOG(kWarn, "vphi-fe") << "op " << op_name(op) << " head=" << head
                             << " timed out (lost request)";
  sim::flight_recorder().dump(
      std::string("frontend timeout (lost request): op ") + op_name(op),
      req.trace);
  return sim::Status::kTimedOut;
}

sim::Expected<FrontendDriver::TransactResult> FrontendDriver::finish(
    sim::Actor& actor, Pending& req) {
  const auto& m = vm_->model();
  auto& ram = vm_->ram();

  // Demux the response and copy any payload back to user space (copy 3ii).
  actor.advance(m.fe_complete_ns);
  if (req.written < sizeof(ResponseHeader)) {
    // The device claims it wrote less than a full ResponseHeader — whatever
    // sits in the response slot is garbage and must not be parsed.
    VPHI_LOG(kWarn, "vphi-fe")
        << "op " << op_name(req.op) << " head=" << req.head
        << " used.len=" << req.written << " < response header size";
    protocol_errors_.inc();
    free_buffers(req);
    sim::tracer().record(req.trace, sim::SpanEvent::kComplete, actor.now());
    sim::flight_recorder().dump(
        std::string("frontend protocol error (short response): op ") +
            op_name(req.op),
        req.trace);
    return sim::Status::kIoError;
  }
  TransactResult result;
  std::memcpy(&result.response,
              ram.translate(req.resp_gpa, sizeof(ResponseHeader)),
              sizeof(ResponseHeader));
  if (!sim::valid_status_int(result.response.status) ||
      result.response.payload_len > req.in_len) {
    // The backend is as untrusted from the guest's side as the guest is
    // from the backend's: a status outside sim::Status or a payload_len
    // exceeding the buffer we posted means the response cannot be trusted.
    VPHI_LOG(kWarn, "vphi-fe")
        << "op " << op_name(req.op) << " head=" << req.head
        << " malformed response: status=" << result.response.status
        << " payload_len=" << result.response.payload_len;
    protocol_errors_.inc();
    free_buffers(req);
    sim::tracer().record(req.trace, sim::SpanEvent::kComplete, actor.now());
    sim::flight_recorder().dump(
        std::string("frontend protocol error (malformed response): op ") +
            op_name(req.op),
        req.trace);
    return sim::Status::kIoError;
  }
  const std::size_t copy_back = result.response.payload_len;
  actor.advance(m.fe_copyback_fixed_ns +
                sim::transfer_time(copy_back, m.guest_memcpy_Bps));
  if (copy_back > 0 && req.in_payload != nullptr) {
    std::memcpy(req.in_payload, ram.translate(req.in_gpa, copy_back),
                copy_back);
  }
  result.in_written = copy_back;
  bytes_in_.inc(copy_back);
  free_buffers(req);
  sim::tracer().record(req.trace, sim::SpanEvent::kComplete, actor.now());
  request_latency_.record(actor.now() - req.submit_ts);
  return result;
}

std::uint64_t FrontendDriver::op_errors(Op op) const {
  sim::MutexLock lock(op_mu_);
  auto it = counters_.find(op);
  return it == counters_.end() ? 0 : it->second.errors.value();
}

std::uint64_t FrontendDriver::op_timeouts(Op op) const {
  sim::MutexLock lock(op_mu_);
  auto it = counters_.find(op);
  return it == counters_.end() ? 0 : it->second.timeouts.value();
}

std::uint64_t FrontendDriver::op_retries(Op op) const {
  sim::MutexLock lock(op_mu_);
  auto it = counters_.find(op);
  return it == counters_.end() ? 0 : it->second.retries.value();
}

std::size_t FrontendDriver::pending_requests() const {
  std::size_t total = 0;
  for (const auto& q : queues_) {
    sim::MutexLock lock(q->mu);
    total += q->pending.size();
  }
  return total;
}

}  // namespace vphi::core
