#include "vphi/backend.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "mic/sysfs.hpp"
#include "scif/fabric.hpp"
#include "sim/actor.hpp"
#include "sim/fault.hpp"
#include "sim/log.hpp"
#include "sim/recorder.hpp"
#include "sim/trace.hpp"

namespace vphi::core {

namespace {
constexpr bool known_op(Op op) noexcept {
  const auto v = static_cast<std::uint32_t>(op);
  return v >= static_cast<std::uint32_t>(Op::kOpen) &&
         v <= static_cast<std::uint32_t>(Op::kCardInfo);
}

constexpr bool transfer_op(Op op) noexcept {
  return op == Op::kSend || op == Op::kRecv || op == Op::kReadfrom ||
         op == Op::kWriteto || op == Op::kVreadfrom || op == Op::kVwriteto;
}
}  // namespace

// --- policy -----------------------------------------------------------------

BackendPolicy::Classifier BackendPolicy::paper_default() {
  return [](Op op, std::uint32_t) {
    switch (op) {
      case Op::kAccept:
        // "We implement scif_accept() in a non-blocking way, since we do
        // not know beforehand when a corresponding scif_connect() request
        // will arrive." (Sec. III)
        return ExecMode::kWorker;
      case Op::kPoll:
        // Same rationale: a blocking poll's horizon is unknown.
        return ExecMode::kWorker;
      default:
        return ExecMode::kBlocking;
    }
  };
}

BackendPolicy::Classifier BackendPolicy::all_blocking() {
  return [](Op, std::uint32_t) { return ExecMode::kBlocking; };
}

BackendPolicy::Classifier BackendPolicy::all_worker() {
  return [](Op, std::uint32_t) { return ExecMode::kWorker; };
}

BackendPolicy::Classifier BackendPolicy::hybrid(std::uint32_t threshold) {
  return [threshold](Op op, std::uint32_t payload_len) {
    if (op == Op::kAccept) return ExecMode::kWorker;
    const bool is_transfer = op == Op::kSend || op == Op::kRecv ||
                             op == Op::kReadfrom || op == Op::kWriteto ||
                             op == Op::kVreadfrom || op == Op::kVwriteto;
    if (is_transfer && payload_len >= threshold) return ExecMode::kWorker;
    return ExecMode::kBlocking;
  };
}

// --- lifecycle -----------------------------------------------------------------

BackendDevice::BackendDevice(hv::Vm& vm, scif::Fabric& fabric,
                             BackendPolicy policy)
    : vm_(&vm),
      fabric_(&fabric),
      policy_(std::move(policy)),
      provider_(std::make_unique<scif::HostProvider>(fabric,
                                                     scif::kHostNode)),
      label_("vm=" + vm.name()),
      worker_requests_("vphi.be.requests.worker", label_),
      blocking_requests_("vphi.be.requests.blocking", label_),
      malformed_chains_("vphi.be.malformed_chains", label_),
      poisoned_chains_("vphi.be.poisoned_chains", label_),
      validation_failures_("vphi.be.validation_failures", label_) {}

BackendDevice::~BackendDevice() { stop(); }

void BackendDevice::start() {
  if (running_.exchange(true)) return;
  service_threads_.reserve(vm_->num_queues());
  for (std::uint16_t q = 0; q < vm_->num_queues(); ++q) {
    service_threads_.emplace_back([this, q] { service_loop(q); });
  }
}

void BackendDevice::stop() {
  if (!running_.exchange(false)) return;
  for (std::uint16_t q = 0; q < vm_->num_queues(); ++q) {
    vm_->vq(q).shutdown();
  }
  for (auto& t : service_threads_) {
    if (t.joinable()) t.join();
  }
  service_threads_.clear();
  // Close every host endpoint FIRST: a blocking recv handler may be
  // holding the QEMU event loop (and workers may be parked in accept or
  // poll); the close resets their endpoints and wakes them so the drain
  // below can complete.
  provider_->close_all();
  vm_->qemu().drain();
  vm_->qemu().join_workers();
}

void BackendDevice::service_loop(std::uint16_t queue) {
  // Queue 0 keeps the historical actor name so single-queue traces read
  // the same; the extra queues of a multi-queue VM get a -q<i> suffix.
  const std::string actor_name =
      queue == 0 ? vm_->name() + "-vphi-be"
                 : vm_->name() + "-vphi-be-q" + std::to_string(queue);
  sim::Actor service_actor{actor_name};
  sim::ActorScope scope(service_actor);
  while (running_.load(std::memory_order_relaxed)) {
    // Batch pop: one notification drains every ready avail entry (and
    // under EVENT_IDX the guest suppressed the doorbells for all but the
    // first of them). Each chain is still classified and dispatched
    // individually below.
    auto batch = vm_->vq(queue).pop_avail_batch();
    if (batch.empty()) break;  // ring shut down
    for (auto& chain : batch) {
      if (chain.poisoned) {
        // Cyclic/corrupted descriptor walk: nothing in the segment list can
        // be trusted except the writable slots' geometry. Answer with a
        // well-formed error response and recycle the chain.
        VPHI_LOG(kWarn, "vphi-be")
            << "rejecting poisoned chain head=" << chain.head;
        malformed_chains_.inc();
        poisoned_chains_.inc();
        sim::flight_recorder().dump("backend rejected poisoned chain",
                                    chain.trace);
        reject_chain(chain, sim::Status::kIoError, chain.kick_ts, queue);
        continue;
      }
      if (chain.segments.empty() || chain.segments[0].ptr == nullptr ||
          chain.segments[0].len < sizeof(RequestHeader)) {
        // Malformed chain: no decodable request header. Answer with an error
        // response if the chain left us a writable segment, else a
        // zero-length used entry.
        VPHI_LOG(kWarn, "vphi-be")
            << "rejecting malformed chain head=" << chain.head << " ("
            << chain.segments.size() << " segment(s))";
        malformed_chains_.inc();
        sim::flight_recorder().dump("backend rejected malformed chain",
                                    chain.trace);
        reject_chain(chain, sim::Status::kInvalidArgument, chain.kick_ts,
                     queue);
        continue;
      }
      RequestHeader req;
      std::memcpy(&req, chain.segments[0].ptr, sizeof(RequestHeader));

      const ExecMode mode = policy_.classify(req.op, req.payload_len);
      {
        // Build the counter's name only on its first request.
        sim::MutexLock lock(mu_);
        auto it = op_counts_.find(req.op);
        if (it == op_counts_.end()) {
          it = op_counts_
                   .try_emplace(req.op,
                                std::string("vphi.be.op.") + op_name(req.op) +
                                    ".requests",
                                label_)
                   .first;
        }
        it->second.inc();
      }
      if (mode == ExecMode::kWorker) {
        worker_requests_.inc();
      } else {
        blocking_requests_.inc();
      }

      if (mode == ExecMode::kWorker) {
        if (transfer_op(req.op)) {
          // Same-endpoint transfers must not reorder: route through the
          // endpoint's FIFO runner instead of an independent worker.
          dispatch_ordered(std::move(chain), req.epd, queue);
          continue;
        }
        // Worker handoff: the loop spends a moment spawning/dispatching,
        // the worker starts once the handoff is visible.
        const sim::Nanos start_ts =
            chain.kick_ts + vm_->model().worker_handoff_ns;
        auto work = [this, queue,
                     chain = std::move(chain)](sim::Actor& actor) {
          process_chain(actor, chain, queue);
        };
        vm_->qemu().run_in_worker(std::move(work), start_ts);
      } else {
        auto work = [this, queue,
                     chain = std::move(chain)](sim::Actor& actor) {
          process_chain(actor, chain, queue);
        };
        vm_->qemu().post(std::move(work));
      }
    }
  }
}

void BackendDevice::dispatch_ordered(virtio::Chain chain, int epd,
                                     std::uint16_t queue) {
  const sim::Nanos kick_ts = chain.kick_ts;
  sim::Nanos start_ts = kick_ts + vm_->model().worker_handoff_ns;
  {
    sim::MutexLock lock(ep_mu_);
    EndpointRunner& ep = ep_runners_[epd];
    ep.chains.push_back(QueuedChain{std::move(chain), queue});
    if (ep.running) return;
    ep.running = true;
    // The host-side queue ran dry, but in simulated time the last runner
    // may still be busy: a chain kicked before it went idle waits for it
    // and starts with no new handoff, so one endpoint's chunks never
    // overlap in simulated time.
    if (kick_ts < ep.idle_ts) start_ts = ep.idle_ts;
  }
  // One runner worker per active endpoint. It drains the queue in FIFO
  // order on a single actor, so consecutive chunks of a pipelined stream
  // execute back to back (one handoff amortized over the whole burst)
  // and can never complete out of order.
  auto runner = [this, epd](sim::Actor& actor) {
    for (;;) {
      QueuedChain next;
      {
        sim::MutexLock lock(ep_mu_);
        EndpointRunner& ep = ep_runners_[epd];
        if (ep.chains.empty()) {
          ep.running = false;
          ep.idle_ts = actor.now();
          return;
        }
        next = std::move(ep.chains.front());
        ep.chains.pop_front();
      }
      process_chain(actor, next.chain, next.queue);
    }
  };
  vm_->qemu().run_in_worker(std::move(runner), start_ts);
}

void BackendDevice::reject_chain(const virtio::Chain& chain,
                                 sim::Status status, sim::Nanos done_ts,
                                 std::uint16_t queue) {
  // Find a writable slot big enough for a ResponseHeader. Even on a
  // poisoned chain the writable segments are the guest's own response
  // slots, so writing a well-formed error header there is always safe.
  void* resp_ptr = nullptr;
  for (const auto& seg : chain.segments) {
    if (seg.device_writes && seg.ptr != nullptr &&
        seg.len >= sizeof(ResponseHeader)) {
      resp_ptr = seg.ptr;
      break;
    }
  }
  std::uint32_t written = 0;
  if (resp_ptr != nullptr) {
    ResponseHeader resp;
    set_status(resp, status);
    std::memcpy(resp_ptr, &resp, sizeof(ResponseHeader));
    written = static_cast<std::uint32_t>(sizeof(ResponseHeader));
  }
  vm_->vq(queue).push_used(chain.head, written, done_ts);
  // EVENT_IDX: only interrupt if the driver's used_event asks for this
  // completion; a coalesced batch raises one vIRQ for its newest entry.
  if (vm_->vq(queue).should_interrupt()) {
    sim::tracer().record(chain.trace, sim::SpanEvent::kVirq,
                         done_ts + vm_->model().irq_inject_ns);
    vm_->inject_irq(queue, done_ts);
  }
}

sim::Status BackendDevice::validate_sg_list(const RequestHeader& req,
                                            const void* out_payload,
                                            const virtio::Chain& chain) const {
  // The sg list rides the request's out payload: SgEntry[n] with
  // payload_len == n * sizeof(SgEntry). Everything in it is a guest claim
  // and gets checked against guest RAM and the chain's own slots.
  if (out_payload == nullptr || req.payload_len == 0 ||
      req.payload_len % sizeof(SgEntry) != 0) {
    return sim::Status::kInvalidArgument;
  }
  const std::uint32_t count =
      req.payload_len / static_cast<std::uint32_t>(sizeof(SgEntry));
  if (count > kMaxSgEntries) return sim::Status::kInvalidArgument;
  std::vector<SgEntry> entries(count);
  std::memcpy(entries.data(), out_payload, req.payload_len);

  struct HvaRange {
    std::uintptr_t lo;
    std::uintptr_t hi;
  };
  std::vector<HvaRange> ranges;
  ranges.reserve(count);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const SgEntry& e = entries[i];
    // Page-aligned start; every entry but the last is a whole number of
    // pages; lengths are non-zero and can never push the running total
    // past the transfer length in arg1 (checked subtractively so a huge
    // len cannot wrap the accumulator).
    if (e.len == 0 || e.len > req.arg1 - total) {
      return sim::Status::kInvalidArgument;
    }
    if (e.gpa % kSgPageBytes != 0) return sim::Status::kInvalidArgument;
    if (i + 1 < count && e.len % kSgPageBytes != 0) {
      return sim::Status::kInvalidArgument;
    }
    void* hva =
        vm_->ram().translate(e.gpa, static_cast<std::uint32_t>(e.len));
    if (hva == nullptr) return sim::Status::kBadAddress;
    total += e.len;
    const auto lo = reinterpret_cast<std::uintptr_t>(hva);
    ranges.push_back(HvaRange{lo, lo + static_cast<std::uintptr_t>(e.len)});
  }
  if (total != req.arg1) return sim::Status::kInvalidArgument;
  // No overlap among the entries themselves...
  std::vector<HvaRange> sorted = ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const HvaRange& a, const HvaRange& b) { return a.lo < b.lo; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].hi > sorted[i].lo) return sim::Status::kInvalidArgument;
  }
  // ...and none with the chain's own ring slots: a DMA target aliasing the
  // request/response headers or bounce buffers would let the device
  // scribble over the protocol state it is about to parse/write.
  for (const auto& seg : chain.segments) {
    if (seg.ptr == nullptr || seg.len == 0) continue;
    const auto seg_lo = reinterpret_cast<std::uintptr_t>(seg.ptr);
    const auto seg_hi = seg_lo + seg.len;
    for (const auto& r : ranges) {
      if (r.lo < seg_hi && seg_lo < r.hi) {
        return sim::Status::kInvalidArgument;
      }
    }
  }
  return sim::Status::kOk;
}

sim::Status BackendDevice::validate_request(const RequestHeader& req,
                                            const void* out_payload,
                                            std::uint32_t out_len,
                                            const void* in_payload,
                                            std::uint32_t in_capacity,
                                            const virtio::Chain& chain) const {
  if (!known_op(req.op)) return sim::Status::kInvalidArgument;
  // The header's payload_len is a *claim*; the chain's readable segment is
  // the ground truth. A guest that claims more than it posted would walk
  // the backend off the end of the bounce buffer.
  if (req.payload_len > 0 &&
      (out_payload == nullptr || req.payload_len > out_len)) {
    return sim::Status::kBadAddress;
  }
  // Zero-copy wire flags are op-specific: prebuilt-sg only makes sense at
  // registration, an sg-list only on the RMA ops that carry one.
  if ((req.flags & kReqFlagPrebuiltSg) != 0 && req.op != Op::kRegister) {
    return sim::Status::kInvalidArgument;
  }
  if ((req.flags & kReqFlagSgList) != 0) {
    if (req.op != Op::kReadfrom && req.op != Op::kWriteto) {
      return sim::Status::kInvalidArgument;
    }
    const sim::Status sg = validate_sg_list(req, out_payload, chain);
    if (!sim::ok(sg)) return sg;
  }
  if (req.op == Op::kPoll) {
    // arg0 = nepds. All bounds in 64-bit so a huge count cannot overflow
    // into a small byte total.
    constexpr std::uint64_t kMaxPollEpds =
        std::numeric_limits<std::int32_t>::max() / sizeof(scif::PollEpd);
    if (req.arg0 == 0 || req.arg0 > kMaxPollEpds) {
      return sim::Status::kInvalidArgument;
    }
    const std::uint64_t bytes = req.arg0 * sizeof(scif::PollEpd);
    if (out_payload == nullptr || bytes > req.payload_len ||
        in_payload == nullptr || bytes > in_capacity) {
      return sim::Status::kInvalidArgument;
    }
  }
  return sim::Status::kOk;
}

void BackendDevice::process_chain(sim::Actor& actor,
                                  const virtio::Chain& chain,
                                  std::uint16_t queue) {
  const auto& m = vm_->model();
  actor.sync_and_advance(chain.kick_ts, m.be_dispatch_ns);
  // Covers every execution mode — event loop, free worker, per-endpoint
  // FIFO runner — because each of them lands here on its own actor.
  sim::tracer().record(chain.trace, sim::SpanEvent::kBackendPop, actor.now());

  RequestHeader req;
  std::memcpy(&req, chain.segments[0].ptr, sizeof(RequestHeader));

  // Locate the optional payload segments around the two headers, recording
  // each segment's *actual* length — the only geometry we trust.
  const void* out_payload = nullptr;
  std::uint32_t out_len = 0;
  void* resp_ptr = nullptr;
  void* in_payload = nullptr;
  std::uint32_t in_capacity = 0;
  for (std::size_t i = 1; i < chain.segments.size(); ++i) {
    const auto& seg = chain.segments[i];
    if (!seg.device_writes) {
      out_payload = seg.ptr;
      out_len = seg.len;
    } else if (resp_ptr == nullptr) {
      resp_ptr = seg.ptr;
      if (seg.len < sizeof(ResponseHeader)) resp_ptr = nullptr;
    } else {
      in_payload = seg.ptr;
      in_capacity = seg.len;
    }
  }

  ResponseHeader resp;
  if (resp_ptr == nullptr) {
    // No usable response slot; reject (writes nothing, zero-length used).
    VPHI_LOG(kWarn, "vphi-be") << "chain head=" << chain.head
                               << " has no usable response segment";
    malformed_chains_.inc();
    sim::flight_recorder().dump("backend chain without response segment",
                                chain.trace);
    reject_chain(chain, sim::Status::kInvalidArgument, actor.now(), queue);
    return;
  }
  const sim::Status valid = validate_request(req, out_payload, out_len,
                                             in_payload, in_capacity, chain);
  if (!sim::ok(valid)) {
    VPHI_LOG(kWarn, "vphi-be")
        << "request head=" << chain.head << " op="
        << static_cast<std::uint32_t>(req.op) << " payload_len="
        << req.payload_len << " failed validation: " << sim::to_string(valid);
    validation_failures_.inc();
    sim::flight_recorder().dump(
        std::string("backend validation failure: ")
            .append(sim::to_string(valid)),
        chain.trace);
    set_status(resp, valid);
  } else {
    sim::tracer().record(chain.trace, sim::SpanEvent::kHostSyscall,
                         actor.now());
    // Card-core occupancy attribution: the provider's SCIF work charges this
    // actor, so the clock delta across execute() is exactly the card/host
    // service time this VM consumed. Pure bookkeeping — the delta is read,
    // never re-charged.
    const sim::Nanos exec_start = actor.now();
    execute(actor, req, out_payload, out_len, in_payload, in_capacity, resp);
    fabric_->charge_card_occupancy(vm_->name(), actor.now() - exec_start,
                                   actor.now());
    // stop() clears running_ before it closes every host endpoint, so a
    // request that reaches the provider after the close finds its
    // descriptor gone: report the teardown, not a bad guest descriptor.
    if (response_status(resp) == sim::Status::kBadDescriptor &&
        !running_.load()) {
      set_status(resp, sim::Status::kShutDown);
    }
  }

  auto& fi = sim::fault_injector();
  if (fi.should_fire(sim::FaultSite::kCorruptResponseStatus, chain.trace)) {
    // A buggy backend build (or bit flip) answering with garbage: the
    // status int is not a Status value and payload_len is absurd. The
    // frontend's response validation must catch both.
    resp.status = 0x0BADBEEF;
    resp.payload_len = 0xFFFF'FFFF;
  }
  if (fi.should_fire(sim::FaultSite::kCorruptResponseRet, chain.trace)) {
    // Plausible-looking header (valid status, sane payload_len) whose ret0
    // violates per-op contracts, e.g. "bytes moved" larger than the chunk.
    // Only the op layer (guest_scif) can catch this one.
    set_status(resp, sim::Status::kOk);
    resp.ret0 = std::numeric_limits<std::int64_t>::max() / 2;
    resp.ret1 = -1;
    resp.payload_len = 0;
  }

  std::memcpy(resp_ptr, &resp, sizeof(ResponseHeader));
  actor.advance(m.be_complete_ns);
  std::uint32_t written = static_cast<std::uint32_t>(sizeof(ResponseHeader)) +
                          resp.payload_len;
  if (fi.should_fire(sim::FaultSite::kShortUsedWrite, chain.trace)) {
    // The used entry claims nothing was written even though the chain
    // completed — the frontend must not parse the response header.
    written = 0;
  }
  vm_->vq(queue).push_used(chain.head, written, actor.now());
  // EVENT_IDX: suppress the vIRQ when the driver's used_event says it is
  // not waiting for this entry (it will reap it from the used ring on the
  // coalesced interrupt of a sibling, or on its own arm-then-recheck).
  if (vm_->vq(queue).should_interrupt()) {
    // Stamped at guest-visible delivery time, so the virq->wakeup hop is
    // exactly the ISR + waiting-scheme cost the paper's Sec. IV-B singles
    // out. Suppressed vIRQs leave the hop out, like suppressed kicks.
    sim::tracer().record(chain.trace, sim::SpanEvent::kVirq,
                         actor.now() + m.irq_inject_ns);
    vm_->inject_irq(queue, actor.now());
  }
}

void BackendDevice::execute(sim::Actor& actor, const RequestHeader& req,
                            const void* out_payload, std::uint32_t out_len,
                            void* in_payload, std::uint32_t in_capacity,
                            ResponseHeader& resp) {
  (void)actor;  // provider calls charge sim::this_actor(), which is `actor`
  // validate_request() has already proven payload_len <= out_len, so every
  // read below that is bounded by req.payload_len stays inside the segment.
  (void)out_len;
  auto& p = *provider_;
  set_status(resp, sim::Status::kOk);

  switch (req.op) {
    case Op::kOpen: {
      auto epd = p.open();
      if (!epd) {
        set_status(resp, epd.status());
        return;
      }
      resp.ret0 = *epd;
      return;
    }
    case Op::kClose: {
      {
        // An idle runner's entry dies with its endpoint.
        sim::MutexLock lock(ep_mu_);
        auto it = ep_runners_.find(req.epd);
        if (it != ep_runners_.end() && !it->second.running) {
          ep_runners_.erase(it);
        }
      }
      set_status(resp, p.close(req.epd));
      return;
    }
    case Op::kBind: {
      auto port = p.bind(req.epd, static_cast<scif::Port>(req.arg0));
      if (!port) {
        set_status(resp, port.status());
        return;
      }
      resp.ret0 = *port;
      return;
    }
    case Op::kListen:
      set_status(resp, p.listen(req.epd, static_cast<int>(req.arg0)));
      return;
    case Op::kConnect:
      set_status(resp,
                 p.connect(req.epd,
                           scif::PortId{static_cast<scif::NodeId>(req.arg0),
                                        static_cast<scif::Port>(req.arg1)}));
      return;
    case Op::kAccept: {
      auto result = p.accept(req.epd, req.flags);
      if (!result) {
        set_status(resp, result.status());
        return;
      }
      resp.ret0 = result->epd;
      resp.ret1 = (static_cast<std::int64_t>(result->peer.node) << 16) |
                  result->peer.port;
      return;
    }
    case Op::kSend: {
      auto sent = p.send(req.epd, out_payload, req.payload_len, req.flags);
      if (!sent) {
        set_status(resp, sent.status());
        return;
      }
      resp.ret0 = static_cast<std::int64_t>(*sent);
      return;
    }
    case Op::kRecv: {
      // arg0 = requested length (bounded by the writable segment).
      const auto want = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(req.arg0, in_capacity));
      auto got = p.recv(req.epd, in_payload, want, req.flags);
      if (!got) {
        set_status(resp, got.status());
        return;
      }
      resp.ret0 = static_cast<std::int64_t>(*got);
      resp.payload_len = static_cast<std::uint32_t>(*got);
      return;
    }
    case Op::kRegister: {
      // arg0 = guest-physical address of the pinned range, arg1 = len,
      // arg2 = requested offset, arg3 = prot.
      void* hva = vm_->ram().translate(req.arg0, req.arg1);
      if (hva == nullptr) {
        set_status(resp, sim::Status::kBadAddress);
        return;
      }
      // kReqFlagPrebuiltSg asks for the pin-once zero-copy registration:
      // the window keeps a prebuilt DMA sg-list, so later RMA on it skips
      // the per-transfer sg rebuild. Wire-only flags are stripped before
      // the request reaches SCIF (they are transport negotiation, not
      // scif_register flags).
      auto off = p.register_guest_mem(
          req.epd, hva, req.arg1, static_cast<scif::RegOffset>(req.arg2),
          static_cast<int>(req.arg3), req.flags & ~kReqFlagWireMask,
          (req.flags & kReqFlagPrebuiltSg) != 0);
      if (!off) {
        set_status(resp, off.status());
        return;
      }
      resp.ret0 = *off;
      return;
    }
    case Op::kUnregister:
      set_status(resp,
                 p.unregister_mem(req.epd,
                                  static_cast<scif::RegOffset>(req.arg0),
                                  req.arg1));
      return;
    case Op::kReadfrom:
      // The sg-list flag (and the validated SgEntry payload it announced)
      // is transport-level: strip it before the SCIF call, which operates
      // on the registered window the sg-list described.
      set_status(resp, p.readfrom(req.epd,
                                  static_cast<scif::RegOffset>(req.arg0),
                                  req.arg1,
                                  static_cast<scif::RegOffset>(req.arg2),
                                  req.flags & ~kReqFlagWireMask));
      return;
    case Op::kWriteto:
      set_status(resp, p.writeto(req.epd,
                                 static_cast<scif::RegOffset>(req.arg0),
                                 req.arg1,
                                 static_cast<scif::RegOffset>(req.arg2),
                                 req.flags & ~kReqFlagWireMask));
      return;
    case Op::kVreadfrom: {
      void* hva = vm_->ram().translate(req.arg0, req.arg1);
      if (hva == nullptr) {
        set_status(resp, sim::Status::kBadAddress);
        return;
      }
      set_status(resp, p.vreadfrom_guest(req.epd, hva, req.arg1,
                                         static_cast<scif::RegOffset>(req.arg2),
                                         req.flags));
      return;
    }
    case Op::kVwriteto: {
      void* hva = vm_->ram().translate(req.arg0, req.arg1);
      if (hva == nullptr) {
        set_status(resp, sim::Status::kBadAddress);
        return;
      }
      set_status(resp, p.vwriteto_guest(req.epd, hva, req.arg1,
                                        static_cast<scif::RegOffset>(req.arg2),
                                        req.flags));
      return;
    }
    case Op::kMmap: {
      // arg0 = remote offset, arg1 = len, arg2 = prot.
      auto mapping = p.mmap(req.epd, static_cast<scif::RegOffset>(req.arg0),
                            req.arg1, static_cast<int>(req.arg2));
      if (!mapping) {
        set_status(resp, mapping.status());
        return;
      }
      sim::MutexLock lock(map_mu_);
      const std::uint64_t cookie = next_map_cookie_++;
      resp.ret0 = static_cast<std::int64_t>(cookie);
      // The "stored physical frame number" of the paper's kvm patch: the
      // host-physical base of the device region, handed to the frontend so
      // it can tag the guest vma (VM_PFNPHI) with it.
      resp.ret1 = static_cast<std::int64_t>(
          reinterpret_cast<std::uintptr_t>(mapping->data));
      live_mappings_[cookie] = *mapping;
      return;
    }
    case Op::kMunmap: {
      sim::MutexLock lock(map_mu_);
      auto it = live_mappings_.find(req.arg0);
      if (it == live_mappings_.end()) {
        set_status(resp, sim::Status::kInvalidArgument);
        return;
      }
      set_status(resp, p.munmap(it->second));
      live_mappings_.erase(it);
      return;
    }
    case Op::kFenceMark: {
      auto mark = p.fence_mark(req.epd, req.flags);
      if (!mark) {
        set_status(resp, mark.status());
        return;
      }
      resp.ret0 = *mark;
      return;
    }
    case Op::kFenceWait:
      set_status(resp, p.fence_wait(req.epd, static_cast<int>(req.arg0)));
      return;
    case Op::kFenceSignal:
      set_status(resp, p.fence_signal(req.epd,
                                      static_cast<scif::RegOffset>(req.arg0),
                                      req.arg1,
                                      static_cast<scif::RegOffset>(req.arg2),
                                      req.arg3, req.flags));
      return;
    case Op::kPoll: {
      // Out payload: PollEpd[n]; arg0 = n, arg1 = timeout_ms (int64).
      // In payload: the PollEpd array with revents filled.
      const auto n = static_cast<int>(req.arg0);
      const std::size_t bytes = sizeof(scif::PollEpd) * static_cast<std::size_t>(n);
      if (n <= 0 || out_payload == nullptr || req.payload_len < bytes ||
          in_capacity < bytes || in_payload == nullptr) {
        set_status(resp, sim::Status::kInvalidArgument);
        return;
      }
      std::vector<scif::PollEpd> epds(static_cast<std::size_t>(n));
      std::memcpy(epds.data(), out_payload, bytes);
      auto ready = p.poll(epds.data(), n, static_cast<int>(
                                              static_cast<std::int64_t>(req.arg1)));
      if (!ready) {
        set_status(resp, ready.status());
        return;
      }
      std::memcpy(in_payload, epds.data(), bytes);
      resp.ret0 = *ready;
      resp.payload_len = static_cast<std::uint32_t>(bytes);
      return;
    }
    case Op::kGetNodeIds: {
      auto ids = p.get_node_ids();
      if (!ids) {
        set_status(resp, ids.status());
        return;
      }
      resp.ret0 = ids->total;
      resp.ret1 = ids->self;
      return;
    }
    case Op::kCardInfo: {
      // arg0 = card index; response payload = "key=value\n" table, the
      // sysfs forwarding micnativeloadex relies on (Sec. III).
      auto info = p.card_info(static_cast<std::uint32_t>(req.arg0));
      if (!info) {
        set_status(resp, info.status());
        return;
      }
      std::string blob;
      for (const auto& [k, v] : info->entries()) {
        blob += k;
        blob += '=';
        blob += v;
        blob += '\n';
      }
      if (blob.size() > in_capacity || in_payload == nullptr) {
        set_status(resp, sim::Status::kNoSpace);
        return;
      }
      std::memcpy(in_payload, blob.data(), blob.size());
      resp.payload_len = static_cast<std::uint32_t>(blob.size());
      return;
    }
  }
  set_status(resp, sim::Status::kNotSupported);
}

}  // namespace vphi::core
