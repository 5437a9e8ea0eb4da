// SCIF endpoint: the kernel-side object behind a scif_epd_t descriptor.
//
// Implements the full connection-oriented lifecycle (bind/listen/accept/
// connect), the two-way stream path (send/recv), the one-sided RMA path over
// registered windows ((v)readfrom/(v)writeto), scif_mmap, poll readiness and
// fences — with the simulated-time costs of the host SCIF driver, the PCIe
// link and the card-side uOS driver attached to each operation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "scif/stream.hpp"
#include "scif/types.hpp"
#include "scif/window.hpp"
#include "sim/actor.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"

namespace vphi::scif {

class Node;
class Fabric;
class Endpoint;

/// A live scif_mmap() mapping of remote registered memory.
///
/// On real hardware the returned pointer aliases Xeon Phi device memory
/// through a PCIe BAR; loads/stores are uncached MMIO. `data()` gives the
/// raw pointer (byte-exact); `read()/write()` are the instrumented accessors
/// that charge per-cacheline MMIO cost to the calling actor.
class MappedRegion {
 public:
  MappedRegion() = default;
  MappedRegion(std::shared_ptr<Endpoint> ep, RegOffset roffset, std::byte* ptr,
               std::size_t len);

  std::byte* data() noexcept { return ptr_; }
  const std::byte* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return len_; }
  RegOffset offset() const noexcept { return roffset_; }
  bool valid() const noexcept { return ptr_ != nullptr; }

  /// Instrumented load: copies [off, off+n) into dst, charging MMIO cost.
  sim::Status read(sim::Actor& actor, std::size_t off, void* dst,
                   std::size_t n) const;
  /// Instrumented store.
  sim::Status write(sim::Actor& actor, std::size_t off, const void* src,
                    std::size_t n);

  /// Tear down the mapping (what scif_munmap does): drops the window's
  /// mmap reference and invalidates this region.
  sim::Status release(sim::Actor& actor);

 private:
  friend class Endpoint;
  std::shared_ptr<Endpoint> ep_;  ///< keeps the window's owner alive
  RegOffset roffset_ = 0;
  std::byte* ptr_ = nullptr;
  std::size_t len_ = 0;
};

class Endpoint : public std::enable_shared_from_this<Endpoint> {
 public:
  enum class State {
    kUnbound,
    kBound,
    kListening,
    kConnecting,
    kConnected,
    kClosed,
  };

  explicit Endpoint(Node& node);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- lifecycle -------------------------------------------------------------
  sim::Expected<Port> bind(Port pn);
  sim::Status listen(int backlog);
  sim::Status connect(sim::Actor& actor, PortId dst);
  sim::Expected<std::shared_ptr<Endpoint>> accept(sim::Actor& actor, bool sync,
                                                  PortId* peer_out);
  sim::Status close();

  // --- two-way messaging -------------------------------------------------------
  sim::Expected<std::size_t> send(sim::Actor& actor, const void* msg,
                                  std::size_t len, int flags);
  sim::Expected<std::size_t> recv(sim::Actor& actor, void* msg,
                                  std::size_t len, int flags);

  // --- registered memory & RMA ---------------------------------------------------
  sim::Expected<RegOffset> register_mem(sim::Actor& actor, void* addr,
                                        std::size_t len, RegOffset offset,
                                        int prot, int flags,
                                        bool guest_backed = false,
                                        bool prebuilt_sg = false);
  sim::Status unregister_mem(RegOffset offset, std::size_t len);

  sim::Status readfrom(sim::Actor& actor, RegOffset loffset, std::size_t len,
                       RegOffset roffset, int flags);
  sim::Status writeto(sim::Actor& actor, RegOffset loffset, std::size_t len,
                      RegOffset roffset, int flags);
  sim::Status vreadfrom(sim::Actor& actor, void* addr, std::size_t len,
                        RegOffset roffset, int flags,
                        bool guest_backed = false);
  sim::Status vwriteto(sim::Actor& actor, void* addr, std::size_t len,
                       RegOffset roffset, int flags,
                       bool guest_backed = false);

  sim::Expected<MappedRegion> mmap(sim::Actor& actor, RegOffset roffset,
                                   std::size_t len, int prot);
  sim::Status munmap(sim::Actor& actor, MappedRegion& region);

  // --- fences ------------------------------------------------------------------
  sim::Expected<int> fence_mark(sim::Actor& actor, int flags);
  sim::Status fence_wait(sim::Actor& actor, int mark);
  sim::Status fence_signal(sim::Actor& actor, RegOffset loff,
                           std::uint64_t lval, RegOffset roff,
                           std::uint64_t rval, int flags);

  // --- readiness -----------------------------------------------------------------
  /// Current poll bits against `events` plus the simulated time of the
  /// newest contributing event.
  short poll_events(short events) const;

  // --- introspection ----------------------------------------------------------------
  State state() const;
  Port port() const;
  PortId peer_id() const;
  Node& node() noexcept { return *node_; }
  WindowTable& windows() noexcept { return windows_; }

 private:
  friend class Node;

  struct ConnRequest {
    std::shared_ptr<Endpoint> initiator;
    sim::Nanos ts;
  };

  /// Costs of entering the local SCIF driver (syscall + request handling).
  sim::Nanos driver_entry_cost() const;
  /// Delivery-time computation for `len` stream bytes leaving now, bound
  /// for `peer_node` (captured under mu_ by the caller).
  sim::Nanos stream_delivery_ts(sim::Actor& actor, NodeId peer_node,
                                std::size_t len);
  /// Issue one RMA of `len` bytes between resolved span lists.
  sim::Status rma_transfer(sim::Actor& actor,
                           const std::vector<WindowSpan>& dst,
                           const std::vector<WindowSpan>& src,
                           std::size_t len, int flags) VPHI_EXCLUDES(mu_);
  /// The connected peer, or nullptr — takes mu_ itself (safe snapshot).
  std::shared_ptr<Endpoint> connected_peer() const VPHI_EXCLUDES(mu_);
  void notify_readiness(sim::Nanos ts) VPHI_EXCLUDES(mu_);
  void record_rma_completion(sim::Nanos end) VPHI_EXCLUDES(rma_mu_);
  sim::Nanos outstanding_rma_max() const VPHI_EXCLUDES(rma_mu_);

  Node* node_;
  mutable sim::Mutex mu_;
  sim::CondVar cv_;
  State state_ VPHI_GUARDED_BY(mu_) = State::kUnbound;
  Port port_ VPHI_GUARDED_BY(mu_) = 0;
  bool port_claimed_ VPHI_GUARDED_BY(mu_) = false;

  // Connected pair.
  std::shared_ptr<Endpoint> peer_ VPHI_GUARDED_BY(mu_);
  PortId peer_id_ VPHI_GUARDED_BY(mu_){};
  sim::Nanos connect_done_ts_ VPHI_GUARDED_BY(mu_) = 0;
  sim::Status connect_result_ VPHI_GUARDED_BY(mu_) = sim::Status::kOk;

  // Listener.
  int backlog_limit_ VPHI_GUARDED_BY(mu_) = 0;
  std::vector<ConnRequest> backlog_ VPHI_GUARDED_BY(mu_);

  // Data paths (internally synchronized; not guarded by mu_).
  Stream rx_;
  WindowTable windows_;

  // Fences.
  mutable sim::Mutex rma_mu_;
  sim::Nanos last_rma_end_ VPHI_GUARDED_BY(rma_mu_) = 0;
  std::map<int, sim::Nanos> fence_marks_ VPHI_GUARDED_BY(rma_mu_);
  int next_mark_ VPHI_GUARDED_BY(rma_mu_) = 1;

  // Readiness bookkeeping.
  sim::Nanos last_event_ts_ VPHI_GUARDED_BY(mu_) = 0;
};

}  // namespace vphi::scif
