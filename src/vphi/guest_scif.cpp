#include "vphi/guest_scif.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mic/sysfs.hpp"
#include "sim/actor.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace vphi::core {

namespace {
constexpr std::size_t kCacheLine = 64;
}

GuestScifProvider::GuestScifProvider(FrontendDriver& frontend)
    : frontend_(&frontend) {}

GuestScifProvider::~GuestScifProvider() = default;

sim::Expected<FrontendDriver::TransactResult> GuestScifProvider::call(
    const FrontendDriver::TransactArgs& args) {
  // Umbrella span for the whole SCIF call; the ring-level request(s) issued
  // by transact() parent to it (retries included), so a trace viewer groups
  // the op with every wire crossing it caused.
  sim::TraceOpScope op_scope(op_name(args.header.op));
  return frontend_->transact(sim::this_actor(), args);
}

GuestScifProvider::PipelineResult GuestScifProvider::run_pipeline(
    const DataOp& op) {
  const bool stream = op.op == Op::kSend || op.op == Op::kRecv;
  const std::size_t chunk =
      stream ? frontend_->chunk_size()
             : std::max<std::size_t>(1, frontend_->config().rma_chunk);
  // Pipelining a stream is only sound when it blocks: a non-blocking chunk
  // may legitimately move fewer bytes than posted mid-stream, and chunks
  // already in flight past it would move out-of-order data. A blocking
  // stream returns short only at EOF/peer reset, so the window's in-order
  // completed prefix is exactly what a serial walk would deliver.
  const int block =
      op.op == Op::kSend ? scif::SCIF_SEND_BLOCK : scif::SCIF_RECV_BLOCK;
  const std::size_t window =
      stream && (op.flags & block) == 0
          ? 1
          : std::clamp<std::size_t>(frontend_->config().pipeline_window, 1,
                                    kMaxWindow);
  const std::size_t chunks = op.len == 0 ? 1 : (op.len + chunk - 1) / chunk;
  auto& actor = sim::this_actor();
  // One umbrella span covers the entire chunk walk; every chunk request
  // parents to it.
  sim::TraceOpScope op_scope(op_name(op.op));

  PipelineResult out;
  // In-flight tokens, slot = chunk index % kMaxWindow; chunks
  // [reaped, submitted) are on the ring.
  std::array<FrontendDriver::Token, kMaxWindow> inflight;
  std::size_t submitted = 0;
  std::size_t reaped = 0;
  bool stop = false;  // submission closed (failure or short completion)
  // Ring-full is backpressure, not an error: with chunks in flight the walk
  // reaps the oldest (freeing its descriptors) and resubmits; with nothing
  // in flight (another vCPU on the same queue holds every descriptor) it
  // retries the probe until a completion frees a slot — the failed probe is
  // free in simulated time, like a stopped virtio queue waiting for the
  // used-ring interrupt. The bound turns a ring that never drains into a
  // hard kNoSpace instead of a hang.
  constexpr int kMaxRingFullSpins = 1 << 20;
  int ring_full_spins = 0;

  while ((!stop && submitted < chunks) || reaped < submitted) {
    // Fill the window: submit ahead without waiting.
    while (!stop && submitted < chunks && submitted - reaped < window) {
      const std::size_t off = submitted * chunk;
      SgEntry sg;
      auto token = frontend_->submit(
          actor, chunk_request(op, off, std::min(op.len - off, chunk), sg));
      if (!token) {
        if (token.status() == sim::Status::kNoSpace) {
          if (reaped < submitted) break;  // reap below, then refill
          if (++ring_full_spins < kMaxRingFullSpins) {
            // Another submitter on this queue holds every descriptor; the
            // failed probe cost nothing in simulated time (the queue is
            // stopped, not busy-polling), so give the wall-clock scheduler
            // a chance to run the completions that will free a slot.
            std::this_thread::yield();
            continue;
          }
        }
        out.error = token.status();
        stop = true;
        break;
      }
      ring_full_spins = 0;
      inflight[submitted++ % kMaxWindow] = *token;
    }
    if (reaped == submitted) break;

    // Reap strictly oldest-first: the completed prefix is only meaningful
    // in submission order.
    const std::size_t n = std::min(op.len - reaped * chunk, chunk);
    auto r = frontend_->wait(actor, inflight[reaped++ % kMaxWindow]);
    if (stop) continue;  // draining a straggler past the stop point
    if (!r) {
      out.error = r.status();
      stop = true;
      continue;
    }
    const sim::Status st = response_status(r->response);
    if (!sim::ok(st)) {
      out.error = st;
      stop = true;
      continue;
    }
    if (!stream) {
      out.bytes += n;
      continue;
    }
    // ret0 = bytes the device moved; outside [0, chunk] is a protocol
    // violation (counting it would make the prefix lie to the caller, and
    // a recv's copy-back would claim bytes the bounce buffer never held).
    const std::int64_t ret0 = r->response.ret0;
    if (ret0 < 0 || static_cast<std::uint64_t>(ret0) > n) {
      out.error = sim::Status::kIoError;
      stop = true;
      continue;
    }
    out.bytes += static_cast<std::size_t>(ret0);
    // Legitimate short completion (EOF/peer reset): the walk ends at the
    // in-order prefix; chunks already in flight beyond it are drained above
    // and discarded.
    if (static_cast<std::size_t>(ret0) < n) stop = true;
  }
  return out;
}

FrontendDriver::TransactArgs GuestScifProvider::chunk_request(
    const DataOp& op, std::size_t off, std::size_t n, SgEntry& sg) {
  FrontendDriver::TransactArgs args;
  args.header.op = op.op;
  args.header.epd = op.epd;
  args.header.flags = op.flags;
  switch (op.op) {
    case Op::kSend:
      args.out_payload = op.out + off;
      args.out_len = n;
      break;
    case Op::kRecv:
      args.header.arg0 = n;
      args.in_payload = op.in + off;
      args.in_len = n;
      break;
    default: {
      // RMA carries no ring payload: the command crosses the ring, the
      // data DMAs directly into the pinned guest window.
      args.header.arg0 = static_cast<std::uint64_t>(op.loffset) + off;
      args.header.arg1 = n;
      args.header.arg2 = static_cast<std::uint64_t>(op.roffset) + off;
      // Zero-copy: when the local range is a registered window, ship its
      // guest-physical run so the backend maps the pinned pages directly
      // instead of bouncing through per-transfer setup.
      if (const auto entry = build_sg(op.epd, op.loffset + off, n)) {
        sg = *entry;
        args.header.flags |= kReqFlagSgList;
        args.out_payload = &sg;
        args.out_len = sizeof(SgEntry);
      }
      break;
    }
  }
  return args;
}

sim::Expected<std::uint64_t> GuestScifProvider::pin_user_range(
    void* addr, std::size_t len) {
  auto& kernel = frontend_->vm().kernel();
  auto gpa = kernel.ram().gpa_of(addr);
  if (!gpa) return gpa.status();
  const auto pinned = kernel.pin_pages(sim::this_actor(), *gpa, len);
  if (!sim::ok(pinned)) return pinned;
  return *gpa;
}

std::optional<SgEntry> GuestScifProvider::build_sg(int epd,
                                                   scif::RegOffset loffset,
                                                   std::size_t len) {
  if (!frontend_->config().zero_copy || len == 0) return std::nullopt;
  std::uint64_t gpa_base = 0;
  bool found = false;
  {
    sim::MutexLock lock(mu_);
    // The registered window covering [loffset, loffset+len). Pinned ranges
    // are guest-physically contiguous (one pin, one gpa), so the slice maps
    // to a single run starting at gpa + (loffset - reg_off).
    for (const auto& [key, val] : registered_) {
      if (key.first != epd) continue;
      const auto reg_off = static_cast<std::uint64_t>(key.second);
      if (reg_off <= static_cast<std::uint64_t>(loffset) &&
          static_cast<std::uint64_t>(loffset) + len <= reg_off + val.second) {
        gpa_base = val.first + (static_cast<std::uint64_t>(loffset) - reg_off);
        found = true;
        break;
      }
    }
  }
  if (!found) return std::nullopt;
  // The backend only accepts page-aligned sg targets; a sub-page slice
  // falls back to the plain request rather than get rejected on the wire.
  if (gpa_base % kSgPageBytes != 0) return std::nullopt;
  SgEntry sg{gpa_base, static_cast<std::uint64_t>(len)};
  auto& fi = sim::fault_injector();
  if (fi.should_fire(sim::FaultSite::kSgMisalign)) {
    // Hostile-guest geometry: shove the entry off its page boundary. The
    // backend's sg validator must reject the request well-formed.
    sg.gpa += 8;
  }
  if (fi.should_fire(sim::FaultSite::kSgLenOverflow)) {
    // Inflate the entry so the list claims more bytes than the header's
    // transfer length — a lying total the backend must catch.
    sg.len += kSgPageBytes;
  }
  return sg;
}

sim::Expected<int> GuestScifProvider::open() {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kOpen;
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  return static_cast<int>(r->response.ret0);
}

sim::Status GuestScifProvider::close(int epd) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kClose;
  args.header.epd = epd;
  auto r = call(args);
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Expected<scif::Port> GuestScifProvider::bind(int epd, scif::Port pn) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kBind;
  args.header.epd = epd;
  args.header.arg0 = pn;
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  return static_cast<scif::Port>(r->response.ret0);
}

sim::Status GuestScifProvider::listen(int epd, int backlog) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kListen;
  args.header.epd = epd;
  args.header.arg0 = static_cast<std::uint64_t>(backlog);
  auto r = call(args);
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Status GuestScifProvider::connect(int epd, scif::PortId dst) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kConnect;
  args.header.epd = epd;
  args.header.arg0 = dst.node;
  args.header.arg1 = dst.port;
  auto r = call(args);
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Expected<scif::AcceptResult> GuestScifProvider::accept(int epd,
                                                            int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kAccept;
  args.header.epd = epd;
  args.header.flags = flags;
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  scif::AcceptResult result;
  result.epd = static_cast<int>(r->response.ret0);
  result.peer.node = static_cast<scif::NodeId>(r->response.ret1 >> 16);
  result.peer.port = static_cast<scif::Port>(r->response.ret1 & 0xFFFF);
  return result;
}

sim::Expected<std::size_t> GuestScifProvider::send(int epd, const void* msg,
                                                   std::size_t len,
                                                   int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  // Chunk at KMALLOC_MAX_SIZE: "if the requested data size is greater than
  // this value, we implement the data transfer breaking up the allocation
  // to KMALLOC_MAX_SIZE elements and proceed with each one of them."
  const auto pr = run_pipeline({.op = Op::kSend,
                                .epd = epd,
                                .flags = flags,
                                .len = len,
                                .out = static_cast<const std::byte*>(msg)});
  // A failure mid-walk still reports the bytes the device consumed, like
  // the real API.
  if (pr.bytes > 0 || sim::ok(pr.error)) return pr.bytes;
  return pr.error;
}

sim::Expected<std::size_t> GuestScifProvider::recv(int epd, void* msg,
                                                   std::size_t len,
                                                   int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  const auto pr = run_pipeline({.op = Op::kRecv,
                                .epd = epd,
                                .flags = flags,
                                .len = len,
                                .in = static_cast<std::byte*>(msg)});
  // Earlier chunks already landed in the caller's buffer: report the
  // partial count, not the error.
  if (pr.bytes > 0 || sim::ok(pr.error)) return pr.bytes;
  return pr.error;
}

sim::Expected<scif::RegOffset> GuestScifProvider::register_mem(
    int epd, void* addr, std::size_t len, scif::RegOffset offset, int prot,
    int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  // Pin the guest pages first — an unpinned page that got swapped out
  // would feed stale data to remote reads (Sec. III).
  auto gpa = pin_user_range(addr, len);
  if (!gpa) return gpa.status();

  FrontendDriver::TransactArgs args;
  args.header.op = Op::kRegister;
  args.header.epd = epd;
  args.header.arg0 = *gpa;
  args.header.arg1 = len;
  args.header.arg2 = static_cast<std::uint64_t>(offset);
  args.header.arg3 = static_cast<std::uint64_t>(prot);
  args.header.flags = flags;
  // Zero-copy: ask the backend to build the window's DMA sg-list once, at
  // registration, from the pages just pinned — later RMA commands on this
  // window skip the per-transfer rebuild (kReqFlagPrebuiltSg is wire-level
  // and stripped before the flags reach SCIF).
  if (frontend_->config().zero_copy) {
    args.header.flags |= kReqFlagPrebuiltSg;
  }
  auto r = call(args);
  if (!r || !sim::ok(response_status(r->response))) {
    frontend_->vm().kernel().unpin_pages(*gpa, len);
    return r ? response_status(r->response) : r.status();
  }
  const auto reg_off = static_cast<scif::RegOffset>(r->response.ret0);
  sim::MutexLock lock(mu_);
  registered_[{epd, reg_off}] = {*gpa, len};
  return reg_off;
}

sim::Status GuestScifProvider::unregister_mem(int epd, scif::RegOffset offset,
                                              std::size_t len) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kUnregister;
  args.header.epd = epd;
  args.header.arg0 = static_cast<std::uint64_t>(offset);
  args.header.arg1 = len;
  auto r = call(args);
  if (!r) return r.status();
  const auto status = response_status(r->response);
  if (sim::ok(status)) {
    sim::MutexLock lock(mu_);
    auto it = registered_.find({epd, offset});
    if (it != registered_.end()) {
      frontend_->vm().kernel().unpin_pages(it->second.first,
                                           it->second.second);
      registered_.erase(it);
    }
  }
  return status;
}

sim::Status GuestScifProvider::readfrom(int epd, scif::RegOffset loffset,
                                        std::size_t len,
                                        scif::RegOffset roffset, int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  return run_pipeline({.op = Op::kReadfrom,
                       .epd = epd,
                       .flags = flags,
                       .len = len,
                       .loffset = loffset,
                       .roffset = roffset})
      .error;
}

sim::Status GuestScifProvider::writeto(int epd, scif::RegOffset loffset,
                                       std::size_t len, scif::RegOffset roffset,
                                       int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  return run_pipeline({.op = Op::kWriteto,
                       .epd = epd,
                       .flags = flags,
                       .len = len,
                       .loffset = loffset,
                       .roffset = roffset})
      .error;
}

sim::Status GuestScifProvider::pinned_rma(Op op, int epd, void* addr,
                                          std::size_t len,
                                          scif::RegOffset roffset, int flags) {
  auto gpa = pin_user_range(addr, len);
  if (!gpa) return gpa.status();
  FrontendDriver::TransactArgs args;
  args.header.op = op;
  args.header.epd = epd;
  args.header.arg0 = *gpa;
  args.header.arg1 = len;
  args.header.arg2 = static_cast<std::uint64_t>(roffset);
  args.header.flags = flags;
  auto r = call(args);
  frontend_->vm().kernel().unpin_pages(*gpa, len);
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Status GuestScifProvider::vreadfrom(int epd, void* addr, std::size_t len,
                                         scif::RegOffset roffset, int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  return pinned_rma(Op::kVreadfrom, epd, addr, len, roffset, flags);
}

sim::Status GuestScifProvider::vwriteto(int epd, void* addr, std::size_t len,
                                        scif::RegOffset roffset, int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  return pinned_rma(Op::kVwriteto, epd, addr, len, roffset, flags);
}

sim::Expected<scif::Mapping> GuestScifProvider::mmap(int epd,
                                                     scif::RegOffset roffset,
                                                     std::size_t len,
                                                     int prot) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kMmap;
  args.header.epd = epd;
  args.header.arg0 = static_cast<std::uint64_t>(roffset);
  args.header.arg1 = len;
  args.header.arg2 = static_cast<std::uint64_t>(prot);
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  const auto backend_cookie = static_cast<std::uint64_t>(r->response.ret0);
  auto* device_base = reinterpret_cast<std::byte*>(
      static_cast<std::uintptr_t>(r->response.ret1));

  // Two-level mapping: allocate a guest-virtual range, tag the vma with
  // VM_PFNPHI and the device frame so KVM faults resolve correctly.
  std::uint64_t gva;
  std::uint64_t cookie;
  {
    sim::MutexLock lock(mu_);
    gva = next_gva_;
    next_gva_ += (len + hv::GuestPhysMem::kPageSize - 1) /
                 hv::GuestPhysMem::kPageSize * hv::GuestPhysMem::kPageSize;
    cookie = next_cookie_++;
    mappings_[cookie] = GuestMapping{backend_cookie, gva, len};
  }
  const auto added = frontend_->vm().kernel().vmas().add(
      hv::Vma{gva, len, hv::VM_PFNPHI, device_base});
  if (!sim::ok(added)) return added;

  scif::Mapping mapping;
  mapping.data = device_base;  // raw alias for tests; guest access goes
                               // through map_read/map_write (the MMU path)
  mapping.len = len;
  mapping.roffset = roffset;
  mapping.cookie = cookie;
  return mapping;
}

sim::Status GuestScifProvider::munmap(scif::Mapping& mapping) {
  const FrontendDriver::ActiveCall active{*frontend_};
  GuestMapping gm;
  {
    sim::MutexLock lock(mu_);
    auto it = mappings_.find(mapping.cookie);
    if (it == mappings_.end()) return sim::Status::kInvalidArgument;
    gm = it->second;
    mappings_.erase(it);
  }
  frontend_->vm().mmu().invalidate(gm.gva, gm.len);
  frontend_->vm().kernel().vmas().remove(gm.gva);

  FrontendDriver::TransactArgs args;
  args.header.op = Op::kMunmap;
  args.header.arg0 = gm.backend_cookie;
  auto r = call(args);
  mapping = scif::Mapping{};
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Expected<std::byte*> GuestScifProvider::map_access(
    const scif::Mapping& mapping, std::size_t off, std::size_t n) {
  GuestMapping gm;
  {
    sim::MutexLock lock(mu_);
    auto it = mappings_.find(mapping.cookie);
    if (it == mappings_.end()) return sim::Status::kInvalidArgument;
    gm = it->second;
  }
  if (off + n > gm.len) return sim::Status::kOutOfRange;
  auto& actor = sim::this_actor();
  // A guest dereference: page faults resolve through the modified KVM MMU
  // (VM_PFNPHI), then each cacheline is an uncached access to device memory.
  auto ptr = frontend_->vm().mmu().access(actor, gm.gva + off, n);
  if (!ptr) return ptr.status();
  const std::size_t lines = (n + kCacheLine - 1) / kCacheLine;
  actor.advance(static_cast<sim::Nanos>(lines) *
                frontend_->vm().model().mmio_access_ns);
  return *ptr;
}

sim::Status GuestScifProvider::map_read(const scif::Mapping& mapping,
                                        std::size_t off, void* dst,
                                        std::size_t n) {
  const FrontendDriver::ActiveCall active{*frontend_};
  auto ptr = map_access(mapping, off, n);
  if (!ptr) return ptr.status();
  std::memcpy(dst, *ptr, n);
  return sim::Status::kOk;
}

sim::Status GuestScifProvider::map_write(const scif::Mapping& mapping,
                                         std::size_t off, const void* src,
                                         std::size_t n) {
  const FrontendDriver::ActiveCall active{*frontend_};
  auto ptr = map_access(mapping, off, n);
  if (!ptr) return ptr.status();
  std::memcpy(*ptr, src, n);
  return sim::Status::kOk;
}

sim::Expected<int> GuestScifProvider::fence_mark(int epd, int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kFenceMark;
  args.header.epd = epd;
  args.header.flags = flags;
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  return static_cast<int>(r->response.ret0);
}

sim::Status GuestScifProvider::fence_wait(int epd, int mark) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kFenceWait;
  args.header.epd = epd;
  args.header.arg0 = static_cast<std::uint64_t>(mark);
  auto r = call(args);
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Status GuestScifProvider::fence_signal(int epd, scif::RegOffset loff,
                                            std::uint64_t lval,
                                            scif::RegOffset roff,
                                            std::uint64_t rval, int flags) {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kFenceSignal;
  args.header.epd = epd;
  args.header.arg0 = static_cast<std::uint64_t>(loff);
  args.header.arg1 = lval;
  args.header.arg2 = static_cast<std::uint64_t>(roff);
  args.header.arg3 = rval;
  args.header.flags = flags;
  auto r = call(args);
  if (!r) return r.status();
  return response_status(r->response);
}

sim::Expected<int> GuestScifProvider::poll(scif::PollEpd* epds, int nepds,
                                           int timeout_ms) {
  const FrontendDriver::ActiveCall active{*frontend_};
  if (epds == nullptr || nepds <= 0) return sim::Status::kInvalidArgument;
  const std::size_t bytes =
      sizeof(scif::PollEpd) * static_cast<std::size_t>(nepds);
  std::vector<scif::PollEpd> shuttle(epds, epds + nepds);
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kPoll;
  args.header.arg0 = static_cast<std::uint64_t>(nepds);
  args.header.arg1 = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(timeout_ms));
  args.out_payload = shuttle.data();
  args.out_len = bytes;
  args.in_payload = shuttle.data();
  args.in_len = bytes;
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  std::memcpy(epds, shuttle.data(), bytes);
  return static_cast<int>(r->response.ret0);
}

sim::Expected<scif::NodeIds> GuestScifProvider::get_node_ids() {
  const FrontendDriver::ActiveCall active{*frontend_};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kGetNodeIds;
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  return scif::NodeIds{static_cast<std::uint16_t>(r->response.ret0),
                       static_cast<scif::NodeId>(r->response.ret1)};
}

sim::Expected<mic::SysfsInfo> GuestScifProvider::card_info(
    std::uint32_t index) {
  const FrontendDriver::ActiveCall active{*frontend_};
  std::vector<char> blob(8'192);
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kCardInfo;
  args.header.arg0 = index;
  args.in_payload = blob.data();
  args.in_len = blob.size();
  auto r = call(args);
  if (!r) return r.status();
  if (!sim::ok(response_status(r->response))) {
    return response_status(r->response);
  }
  // Parse "key=value\n" lines back into a SysfsInfo.
  mic::SysfsInfo info;
  std::string_view rest{blob.data(), r->in_written};
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    info.set(std::string(line.substr(0, eq)), std::string(line.substr(eq + 1)));
  }
  return info;
}

}  // namespace vphi::core
