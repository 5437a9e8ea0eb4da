#include "scif/endpoint.hpp"

#include <algorithm>
#include <cstring>

#include "pcie/link.hpp"
#include "scif/fabric.hpp"
#include "scif/node.hpp"
#include "sim/page_arena.hpp"

namespace vphi::scif {

namespace {

/// Walk two span lists and copy `len` bytes from src spans to dst spans.
void copy_spans(const std::vector<WindowSpan>& dst,
                const std::vector<WindowSpan>& src, std::size_t len) {
  std::size_t di = 0, doff = 0, si = 0, soff = 0, moved = 0;
  while (moved < len) {
    const std::size_t dleft = dst[di].len - doff;
    const std::size_t sleft = src[si].len - soff;
    const std::size_t chunk = std::min({dleft, sleft, len - moved});
    std::memcpy(dst[di].base + doff, src[si].base + soff, chunk);
    doff += chunk;
    soff += chunk;
    moved += chunk;
    if (doff == dst[di].len) {
      ++di;
      doff = 0;
    }
    if (soff == src[si].len) {
      ++si;
      soff = 0;
    }
  }
}

bool any_fragmented(const std::vector<WindowSpan>& spans) {
  return std::any_of(spans.begin(), spans.end(),
                     [](const WindowSpan& s) { return s.fragmented; });
}

/// True when every fragmented span carries a registration-time sg-list, so
/// the DMA engine can replay prebuilt descriptors (zero-copy rate).
bool all_fragmented_prebuilt(const std::vector<WindowSpan>& spans) {
  return std::all_of(spans.begin(), spans.end(), [](const WindowSpan& s) {
    return !s.fragmented || s.prebuilt;
  });
}

/// Holds the RMA references taken by WindowTable::resolve_and_ref() for the
/// lifetime of a transfer, so scif_unregister cannot unmap the backing
/// while the (simulated) DMA engine still owns it.
struct RmaRangeRef {
  RmaRangeRef() = default;
  RmaRangeRef(WindowTable* t, RegOffset off, std::size_t n)
      : table(t), offset(off), len(n) {}
  RmaRangeRef(const RmaRangeRef&) = delete;
  RmaRangeRef& operator=(const RmaRangeRef&) = delete;
  ~RmaRangeRef() {
    if (table != nullptr) table->drop_rma_ref(offset, len);
  }
  WindowTable* table = nullptr;
  RegOffset offset = 0;
  std::size_t len = 0;
};

constexpr std::size_t kCacheLine = 64;

}  // namespace

// --- MappedRegion ------------------------------------------------------------

MappedRegion::MappedRegion(std::shared_ptr<Endpoint> ep, RegOffset roffset,
                           std::byte* ptr, std::size_t len)
    : ep_(std::move(ep)), roffset_(roffset), ptr_(ptr), len_(len) {}

sim::Status MappedRegion::read(sim::Actor& actor, std::size_t off, void* dst,
                               std::size_t n) const {
  if (!valid() || off + n > len_) return sim::Status::kOutOfRange;
  const auto& m = ep_->node().fabric().model();
  const std::size_t lines = (n + kCacheLine - 1) / kCacheLine;
  actor.advance(static_cast<sim::Nanos>(lines) * m.mmio_access_ns);
  std::memcpy(dst, ptr_ + off, n);
  return sim::Status::kOk;
}

sim::Status MappedRegion::write(sim::Actor& actor, std::size_t off,
                                const void* src, std::size_t n) {
  if (!valid() || off + n > len_) return sim::Status::kOutOfRange;
  const auto& m = ep_->node().fabric().model();
  const std::size_t lines = (n + kCacheLine - 1) / kCacheLine;
  actor.advance(static_cast<sim::Nanos>(lines) * m.mmio_access_ns);
  std::memcpy(ptr_ + off, src, n);
  return sim::Status::kOk;
}

// --- Endpoint lifecycle ----------------------------------------------------------

Endpoint::Endpoint(Node& node) : node_(&node) {}

Endpoint::~Endpoint() { close(); }

sim::Expected<Port> Endpoint::bind(Port pn) {
  sim::MutexLock lock(mu_);
  if (state_ != State::kUnbound) return sim::Status::kInvalidArgument;
  auto claimed = node_->claim_port(pn);
  if (!claimed) return claimed.status();
  port_ = *claimed;
  port_claimed_ = true;
  state_ = State::kBound;
  return port_;
}

sim::Status Endpoint::listen(int backlog) {
  if (backlog <= 0) return sim::Status::kInvalidArgument;
  sim::MutexLock lock(mu_);
  if (state_ != State::kBound) return sim::Status::kInvalidArgument;
  const auto published = node_->publish_listener(port_, shared_from_this());
  if (!sim::ok(published)) return published;
  backlog_limit_ = backlog;
  state_ = State::kListening;
  return sim::Status::kOk;
}

sim::Status Endpoint::connect(sim::Actor& actor, PortId dst) {
  {
    sim::MutexLock lock(mu_);
    if (state_ == State::kConnected) return sim::Status::kAlreadyConnected;
    if (state_ != State::kUnbound && state_ != State::kBound) {
      return sim::Status::kInvalidArgument;
    }
  }
  // Auto-bind to an ephemeral port, like the real driver.
  if (state() == State::kUnbound) {
    auto bound = bind(0);
    if (!bound) return bound.status();
  }

  Node* target = node_->fabric().node(dst.node);
  if (target == nullptr) return sim::Status::kNoDevice;
  auto listener = target->listener_at(dst.port);
  if (listener == nullptr) return sim::Status::kConnectionRefused;

  const auto& m = node_->fabric().model();
  // Connection request: syscall + driver + one PCIe hop to the remote driver.
  actor.advance(driver_entry_cost());
  sim::Nanos req_ts = actor.now();
  if (node_->fabric().link_between(node_->id(), dst.node) != nullptr) {
    req_ts += m.pcie_hop_ns;
  }
  req_ts += m.scif_card_driver_ns;

  // Connecting before queued: an acceptor that pops the request at once
  // must find this endpoint waiting, or it takes it for one that gave up.
  {
    sim::MutexLock lock(mu_);
    state_ = State::kConnecting;
    connect_result_ = sim::Status::kOk;
  }
  // Enqueue on the listener's backlog.
  bool queued = false;
  {
    sim::MutexLock lock(listener->mu_);
    if (listener->state_ == State::kListening &&
        listener->backlog_.size() <
            static_cast<std::size_t>(listener->backlog_limit_)) {
      listener->backlog_.push_back(ConnRequest{shared_from_this(), req_ts});
      listener->last_event_ts_ = std::max(listener->last_event_ts_, req_ts);
      queued = true;
    }
  }
  if (!queued) {
    sim::MutexLock lock(mu_);
    if (state_ == State::kConnecting) state_ = State::kBound;
    return sim::Status::kConnectionRefused;
  }
  listener->cv_.notify_all();
  listener->notify_readiness(req_ts);

  // Wait for the acceptor.
  sim::MutexLock lock(mu_);
  while (state_ == State::kConnecting) cv_.wait(mu_);
  if (state_ != State::kConnected) {
    return sim::ok(connect_result_) ? sim::Status::kConnectionRefused
                                    : connect_result_;
  }
  actor.sync_to(connect_done_ts_);
  return sim::Status::kOk;
}

sim::Expected<std::shared_ptr<Endpoint>> Endpoint::accept(sim::Actor& actor,
                                                          bool sync,
                                                          PortId* peer_out) {
  actor.advance(driver_entry_cost());
  ConnRequest req;
  {
    sim::MutexLock lock(mu_);
    if (state_ != State::kListening) return sim::Status::kNotListening;
    if (backlog_.empty() && !sync) return sim::Status::kWouldBlock;
    while (backlog_.empty() && state_ == State::kListening) cv_.wait(mu_);
    if (state_ != State::kListening) return sim::Status::kBadDescriptor;
    req = backlog_.front();
    backlog_.erase(backlog_.begin());
  }

  const auto& m = node_->fabric().model();
  actor.sync_and_advance(req.ts, m.scif_host_driver_ns);

  // Build the connected endpoint on this node.
  auto accepted = std::make_shared<Endpoint>(*node_);
  auto accepted_port = node_->claim_port(0);
  if (!accepted_port) return accepted_port.status();

  // Completion becomes visible to the initiator one hop later.
  sim::Nanos done_ts = actor.now();
  if (node_->fabric().link_between(node_->id(), req.initiator->node_->id()) !=
      nullptr) {
    done_ts += m.pcie_hop_ns;
  }

  {
    sim::MutexLock2 pair_lock(accepted->mu_, req.initiator->mu_);
    if (req.initiator->state_ != State::kConnecting) {
      // Initiator gave up (closed) while queued.
      node_->release_port(*accepted_port);
      return sim::Status::kConnectionReset;
    }
    accepted->port_ = *accepted_port;
    accepted->port_claimed_ = true;
    accepted->state_ = State::kConnected;
    accepted->peer_ = req.initiator;
    accepted->peer_id_ =
        PortId{req.initiator->node_->id(), req.initiator->port_};

    req.initiator->state_ = State::kConnected;
    req.initiator->peer_ = accepted;
    req.initiator->peer_id_ = PortId{node_->id(), accepted->port_};
    req.initiator->connect_done_ts_ = done_ts;
  }
  req.initiator->cv_.notify_all();
  req.initiator->notify_readiness(done_ts);

  if (peer_out != nullptr) {
    *peer_out = PortId{req.initiator->node_->id(), req.initiator->port_};
  }
  return accepted;
}

sim::Status Endpoint::close() {
  std::shared_ptr<Endpoint> peer;
  std::vector<ConnRequest> pending;
  {
    sim::MutexLock lock(mu_);
    if (state_ == State::kClosed) return sim::Status::kOk;
    if (state_ == State::kListening) {
      node_->retract_listener(port_);
      pending.swap(backlog_);
    }
    if (port_claimed_) {
      node_->release_port(port_);
      port_claimed_ = false;
    }
    peer = std::move(peer_);
    peer_.reset();
    const bool was_connecting = state_ == State::kConnecting;
    state_ = State::kClosed;
    if (was_connecting) connect_result_ = sim::Status::kInterrupted;
  }
  cv_.notify_all();
  rx_.reset();

  // Refuse any queued connectors.
  for (auto& req : pending) {
    {
      sim::MutexLock lock(req.initiator->mu_);
      if (req.initiator->state_ == State::kConnecting) {
        req.initiator->state_ = State::kClosed;
        req.initiator->connect_result_ = sim::Status::kConnectionRefused;
      }
    }
    req.initiator->cv_.notify_all();
  }

  if (peer != nullptr) {
    sim::Nanos peer_ts = 0;
    {
      sim::MutexLock lock(peer->mu_);
      peer->peer_.reset();
      peer_ts = peer->last_event_ts_;
    }
    peer->rx_.reset();
    peer->cv_.notify_all();
    peer->notify_readiness(peer_ts);
  }
  sim::Nanos self_ts = 0;
  {
    sim::MutexLock lock(mu_);
    self_ts = last_event_ts_;
  }
  notify_readiness(self_ts);
  return sim::Status::kOk;
}

// --- messaging -----------------------------------------------------------------

sim::Nanos Endpoint::driver_entry_cost() const {
  const auto& m = node_->fabric().model();
  return m.host_syscall_ns + m.scif_host_driver_ns;
}

sim::Nanos Endpoint::stream_delivery_ts(sim::Actor& actor, NodeId peer_node,
                                        std::size_t len) {
  const auto& m = node_->fabric().model();
  pcie::Link* link = node_->fabric().link_between(node_->id(), peer_node);
  if (link == nullptr) {
    // Host-local loopback: a kernel memcpy, no PCIe involved.
    const sim::Nanos dur =
        m.copy_setup_ns + sim::transfer_time(len, m.host_memcpy_Bps);
    return actor.advance(dur);
  }
  const sim::Nanos dur =
      m.dma_setup_ns + sim::transfer_time(len, m.scif_stream_bandwidth_Bps);
  const auto grant = link->occupy(actor.now(), dur, len);
  // scif_send with SCIF_SEND_BLOCK returns once the data is delivered and
  // acknowledged by the remote driver; the sender's clock follows delivery.
  const sim::Nanos arrival = grant.end + m.pcie_hop_ns + m.scif_card_driver_ns;
  actor.sync_to(arrival);
  return arrival;
}

sim::Expected<std::size_t> Endpoint::send(sim::Actor& actor, const void* msg,
                                          std::size_t len, int flags) {
  if (msg == nullptr && len > 0) return sim::Status::kBadAddress;
  std::shared_ptr<Endpoint> peer;
  NodeId peer_node{};
  {
    sim::MutexLock lock(mu_);
    if (state_ != State::kConnected) {
      return state_ == State::kClosed && peer_ == nullptr
                 ? sim::Status::kConnectionReset
                 : sim::Status::kNotConnected;
    }
    peer = peer_;
    peer_node = peer_id_.node;
  }
  if (peer == nullptr) return sim::Status::kConnectionReset;

  actor.advance(driver_entry_cost());
  const sim::Nanos arrival = stream_delivery_ts(actor, peer_node, len);

  const bool blocking = (flags & SCIF_SEND_BLOCK) != 0;
  auto written = peer->rx_.write(msg, len, arrival, blocking);
  if (!written) return written.status();
  peer->notify_readiness(arrival);
  peer->cv_.notify_all();
  return written->written;
}

sim::Expected<std::size_t> Endpoint::recv(sim::Actor& actor, void* msg,
                                          std::size_t len, int flags) {
  if (msg == nullptr && len > 0) return sim::Status::kBadAddress;
  {
    sim::MutexLock lock(mu_);
    if (state_ != State::kConnected && state_ != State::kClosed) {
      return sim::Status::kNotConnected;
    }
    if (state_ == State::kClosed && !rx_.is_reset() && rx_.available() == 0) {
      return sim::Status::kNotConnected;
    }
  }
  actor.advance(driver_entry_cost());
  const bool blocking = (flags & SCIF_RECV_BLOCK) != 0;
  auto got = rx_.read(msg, len, blocking);
  if (!got) return got.status();
  const auto& m = node_->fabric().model();
  actor.sync_and_advance(
      got->newest_ts,
      m.copy_setup_ns + sim::transfer_time(got->read, m.host_memcpy_Bps));
  notify_readiness(actor.now());
  return got->read;
}

// --- registered memory & RMA ----------------------------------------------------

sim::Expected<RegOffset> Endpoint::register_mem(sim::Actor& actor, void* addr,
                                                std::size_t len,
                                                RegOffset offset, int prot,
                                                int flags, bool guest_backed,
                                                bool prebuilt_sg) {
  {
    sim::MutexLock lock(mu_);
    if (state_ != State::kConnected) return sim::Status::kNotConnected;
  }
  const auto& m = node_->fabric().model();
  const std::uint64_t pages = (len + WindowTable::kPageSize - 1) / WindowTable::kPageSize;
  actor.advance(driver_entry_cost() + pages * m.pin_per_page_ns);
  auto added = windows_.add(static_cast<std::byte*>(addr), len, offset, prot,
                            flags, guest_backed, prebuilt_sg);
  if (added) sim::populate_pages(addr, len);  // pinning faults the pages in
  return added;
}

sim::Status Endpoint::unregister_mem(RegOffset offset, std::size_t len) {
  return windows_.remove(offset, len);
}

sim::Status Endpoint::rma_transfer(sim::Actor& actor,
                                   const std::vector<WindowSpan>& dst,
                                   const std::vector<WindowSpan>& src,
                                   std::size_t len, int flags) {
  const auto& m = node_->fabric().model();
  const bool fragmented = any_fragmented(dst) || any_fragmented(src);
  const bool prebuilt = fragmented && all_fragmented_prebuilt(dst) &&
                        all_fragmented_prebuilt(src);
  NodeId peer_node{};
  {
    // peer_id_ is guarded by mu_; the RMA entry points check connectedness
    // via connected_peer() but release the lock before resolving windows,
    // so re-read the peer node here instead of touching peer_id_ unlocked.
    sim::MutexLock lock(mu_);
    peer_node = peer_id_.node;
  }
  pcie::Link* link = node_->fabric().link_between(node_->id(), peer_node);

  sim::Nanos end;
  if ((flags & SCIF_RMA_USECPU) != 0 || link == nullptr) {
    // CPU copy: programmed I/O through the BAR (or local memcpy on loopback).
    const double bw = link == nullptr ? m.host_memcpy_Bps : m.rma_cpu_bandwidth_Bps;
    end = actor.now() + m.copy_setup_ns + sim::transfer_time(len, bw);
  } else {
    const auto grant = link->dma(actor.now(), len, fragmented, prebuilt);
    end = grant.end;
  }
  copy_spans(dst, src, len);

  if ((flags & SCIF_RMA_SYNC) != 0) {
    actor.sync_to(end);
  }
  record_rma_completion(end);
  return sim::Status::kOk;
}

sim::Status Endpoint::readfrom(sim::Actor& actor, RegOffset loffset,
                               std::size_t len, RegOffset roffset, int flags) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  if (len == 0) return sim::Status::kOk;
  actor.advance(driver_entry_cost());
  auto local = windows_.resolve_and_ref(loffset, len, SCIF_PROT_WRITE);
  if (!local) return local.status();
  RmaRangeRef local_ref(&windows_, loffset, len);
  auto remote = peer->windows_.resolve_and_ref(roffset, len, SCIF_PROT_READ);
  if (!remote) return remote.status();
  RmaRangeRef remote_ref(&peer->windows_, roffset, len);
  return rma_transfer(actor, *local, *remote, len, flags);
}

sim::Status Endpoint::writeto(sim::Actor& actor, RegOffset loffset,
                              std::size_t len, RegOffset roffset, int flags) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  if (len == 0) return sim::Status::kOk;
  actor.advance(driver_entry_cost());
  auto local = windows_.resolve_and_ref(loffset, len, SCIF_PROT_READ);
  if (!local) return local.status();
  RmaRangeRef local_ref(&windows_, loffset, len);
  auto remote = peer->windows_.resolve_and_ref(roffset, len, SCIF_PROT_WRITE);
  if (!remote) return remote.status();
  RmaRangeRef remote_ref(&peer->windows_, roffset, len);
  return rma_transfer(actor, *remote, *local, len, flags);
}

sim::Status Endpoint::vreadfrom(sim::Actor& actor, void* addr, std::size_t len,
                                RegOffset roffset, int flags,
                                bool guest_backed) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  if (addr == nullptr) return sim::Status::kBadAddress;
  if (len == 0) return sim::Status::kOk;
  const auto& m = node_->fabric().model();
  const std::uint64_t pages = (len + WindowTable::kPageSize - 1) / WindowTable::kPageSize;
  actor.advance(driver_entry_cost() + pages * m.pin_per_page_ns);
  auto remote = peer->windows_.resolve_and_ref(roffset, len, SCIF_PROT_READ);
  if (!remote) return remote.status();
  RmaRangeRef remote_ref(&peer->windows_, roffset, len);
  std::vector<WindowSpan> local{{static_cast<std::byte*>(addr), len, guest_backed}};
  return rma_transfer(actor, local, *remote, len, flags);
}

sim::Status Endpoint::vwriteto(sim::Actor& actor, void* addr, std::size_t len,
                               RegOffset roffset, int flags,
                               bool guest_backed) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  if (addr == nullptr) return sim::Status::kBadAddress;
  if (len == 0) return sim::Status::kOk;
  const auto& m = node_->fabric().model();
  const std::uint64_t pages = (len + WindowTable::kPageSize - 1) / WindowTable::kPageSize;
  actor.advance(driver_entry_cost() + pages * m.pin_per_page_ns);
  auto remote = peer->windows_.resolve_and_ref(roffset, len, SCIF_PROT_WRITE);
  if (!remote) return remote.status();
  RmaRangeRef remote_ref(&peer->windows_, roffset, len);
  std::vector<WindowSpan> local{{static_cast<std::byte*>(addr), len, guest_backed}};
  return rma_transfer(actor, *remote, local, len, flags);
}

sim::Expected<MappedRegion> Endpoint::mmap(sim::Actor& actor,
                                           RegOffset roffset, std::size_t len,
                                           int prot) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  if (len == 0) return sim::Status::kInvalidArgument;
  auto remote = peer->windows_.resolve(roffset, len, prot);
  if (!remote) return remote.status();
  if (remote->size() != 1) {
    // A single VA range cannot alias disjoint backings in the simulator.
    return sim::Status::kNotSupported;
  }
  const auto& m = node_->fabric().model();
  const std::uint64_t pages = (len + WindowTable::kPageSize - 1) / WindowTable::kPageSize;
  actor.advance(driver_entry_cost() + pages * m.mmap_setup_per_page_ns);
  const auto reffed = peer->windows_.add_mmap_ref(roffset);
  if (!sim::ok(reffed)) return reffed;
  return MappedRegion{peer, roffset, remote->front().base, len};
}

sim::Status MappedRegion::release(sim::Actor& actor) {
  if (!valid()) return sim::Status::kInvalidArgument;
  actor.advance(ep_->node().fabric().model().host_syscall_ns);
  const auto dropped = ep_->windows().drop_mmap_ref(roffset_);
  ptr_ = nullptr;
  len_ = 0;
  ep_.reset();
  return dropped;
}

sim::Status Endpoint::munmap(sim::Actor& actor, MappedRegion& region) {
  return region.release(actor);
}

// --- fences --------------------------------------------------------------------

void Endpoint::record_rma_completion(sim::Nanos end) {
  sim::MutexLock lock(rma_mu_);
  last_rma_end_ = std::max(last_rma_end_, end);
}

sim::Nanos Endpoint::outstanding_rma_max() const {
  sim::MutexLock lock(rma_mu_);
  return last_rma_end_;
}

sim::Expected<int> Endpoint::fence_mark(sim::Actor& actor, int flags) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  actor.advance(node_->fabric().model().host_syscall_ns);
  sim::Nanos horizon = 0;
  if ((flags & SCIF_FENCE_INIT_SELF) != 0 || flags == 0) {
    horizon = std::max(horizon, outstanding_rma_max());
  }
  if ((flags & SCIF_FENCE_INIT_PEER) != 0) {
    horizon = std::max(horizon, peer->outstanding_rma_max());
  }
  sim::MutexLock lock(rma_mu_);
  const int mark = next_mark_++;
  fence_marks_[mark] = horizon;
  return mark;
}

sim::Status Endpoint::fence_wait(sim::Actor& actor, int mark) {
  sim::Nanos horizon;
  {
    sim::MutexLock lock(rma_mu_);
    auto it = fence_marks_.find(mark);
    if (it == fence_marks_.end()) return sim::Status::kInvalidArgument;
    horizon = it->second;
    fence_marks_.erase(it);
  }
  actor.sync_to(horizon);
  actor.advance(node_->fabric().model().host_syscall_ns);
  return sim::Status::kOk;
}

sim::Status Endpoint::fence_signal(sim::Actor& actor, RegOffset loff,
                                   std::uint64_t lval, RegOffset roff,
                                   std::uint64_t rval, int flags) {
  std::shared_ptr<Endpoint> peer = connected_peer();
  if (peer == nullptr) return sim::Status::kNotConnected;
  actor.advance(node_->fabric().model().host_syscall_ns);
  if ((flags & SCIF_SIGNAL_LOCAL) != 0) {
    auto span = windows_.resolve(loff, sizeof(lval), SCIF_PROT_WRITE);
    if (!span) return span.status();
    if (span->front().len < sizeof(lval)) return sim::Status::kInvalidArgument;
    std::memcpy(span->front().base, &lval, sizeof(lval));
  }
  if ((flags & SCIF_SIGNAL_REMOTE) != 0) {
    auto span = peer->windows_.resolve(roff, sizeof(rval), SCIF_PROT_WRITE);
    if (!span) return span.status();
    if (span->front().len < sizeof(rval)) return sim::Status::kInvalidArgument;
    std::memcpy(span->front().base, &rval, sizeof(rval));
    peer->notify_readiness(std::max(actor.now(), outstanding_rma_max()));
  }
  return sim::Status::kOk;
}

// --- readiness ------------------------------------------------------------------

void Endpoint::notify_readiness(sim::Nanos ts) {
  {
    sim::MutexLock lock(mu_);
    last_event_ts_ = std::max(last_event_ts_, ts);
  }
  node_->fabric().poll_hub().notify();
}

short Endpoint::poll_events(short events) const {
  sim::MutexLock lock(mu_);
  short revents = 0;
  switch (state_) {
    case State::kListening:
      if ((events & SCIF_POLLIN) != 0 && !backlog_.empty()) {
        revents |= SCIF_POLLIN;
      }
      break;
    case State::kConnected:
      if ((events & SCIF_POLLIN) != 0 &&
          (rx_.available() > 0 || rx_.is_reset())) {
        revents |= SCIF_POLLIN;
      }
      if ((events & SCIF_POLLOUT) != 0) {
        if (peer_ != nullptr && peer_->rx_.window() > 0) {
          revents |= SCIF_POLLOUT;
        }
      }
      if (peer_ == nullptr) revents |= SCIF_POLLHUP;
      break;
    case State::kClosed:
      if (rx_.available() > 0 && (events & SCIF_POLLIN) != 0) {
        revents |= SCIF_POLLIN;
      }
      revents |= SCIF_POLLHUP;
      break;
    default:
      revents |= SCIF_POLLERR;
      break;
  }
  return revents;
}

// --- introspection -----------------------------------------------------------------

Endpoint::State Endpoint::state() const {
  sim::MutexLock lock(mu_);
  return state_;
}

Port Endpoint::port() const {
  sim::MutexLock lock(mu_);
  return port_;
}

PortId Endpoint::peer_id() const {
  sim::MutexLock lock(mu_);
  return peer_id_;
}

std::shared_ptr<Endpoint> Endpoint::connected_peer() const {
  sim::MutexLock lock(mu_);
  return state_ == State::kConnected ? peer_ : nullptr;
}

}  // namespace vphi::scif
