// The native SCIF provider: what libscif + /dev/mic/scif give a process
// running directly on the host (or on the card's uOS). A HostProvider is
// constructed for a specific local node; each instance stands for one
// process's descriptor table.
#pragma once

#include <map>
#include <memory>

#include "scif/endpoint.hpp"
#include "scif/fabric.hpp"
#include "scif/provider.hpp"
#include "sim/thread_safety.hpp"

namespace vphi::scif {

class HostProvider final : public Provider {
 public:
  /// A provider for a process on `local_node` (kHostNode for host
  /// processes, a card's node id for uOS processes).
  HostProvider(Fabric& fabric, NodeId local_node);
  ~HostProvider() override;

  sim::Expected<int> open() override;
  sim::Status close(int epd) override;
  sim::Expected<Port> bind(int epd, Port pn) override;
  sim::Status listen(int epd, int backlog) override;
  sim::Status connect(int epd, PortId dst) override;
  sim::Expected<AcceptResult> accept(int epd, int flags) override;

  sim::Expected<std::size_t> send(int epd, const void* msg, std::size_t len,
                                  int flags) override;
  sim::Expected<std::size_t> recv(int epd, void* msg, std::size_t len,
                                  int flags) override;

  sim::Expected<RegOffset> register_mem(int epd, void* addr, std::size_t len,
                                        RegOffset offset, int prot,
                                        int flags) override;
  sim::Status unregister_mem(int epd, RegOffset offset,
                             std::size_t len) override;
  sim::Status readfrom(int epd, RegOffset loffset, std::size_t len,
                       RegOffset roffset, int flags) override;
  sim::Status writeto(int epd, RegOffset loffset, std::size_t len,
                      RegOffset roffset, int flags) override;
  sim::Status vreadfrom(int epd, void* addr, std::size_t len,
                        RegOffset roffset, int flags) override;
  sim::Status vwriteto(int epd, void* addr, std::size_t len, RegOffset roffset,
                       int flags) override;

  sim::Expected<Mapping> mmap(int epd, RegOffset roffset, std::size_t len,
                              int prot) override;
  sim::Status munmap(Mapping& mapping) override;
  sim::Status map_read(const Mapping& mapping, std::size_t off, void* dst,
                       std::size_t n) override;
  sim::Status map_write(const Mapping& mapping, std::size_t off,
                        const void* src, std::size_t n) override;

  sim::Expected<int> fence_mark(int epd, int flags) override;
  sim::Status fence_wait(int epd, int mark) override;
  sim::Status fence_signal(int epd, RegOffset loff, std::uint64_t lval,
                           RegOffset roff, std::uint64_t rval,
                           int flags) override;
  sim::Expected<int> poll(PollEpd* epds, int nepds, int timeout_ms) override;

  sim::Expected<NodeIds> get_node_ids() override;
  sim::Expected<mic::SysfsInfo> card_info(std::uint32_t index) override;

  /// Register windows on behalf of the vPHI backend: like register_mem but
  /// marks the backing as guest memory (two-level translated => per-page
  /// scatter-gather DMA cost).
  /// `prebuilt_sg` additionally records that the sg-list for the pinned
  /// pages was built once at registration time (zero-copy data path).
  sim::Expected<RegOffset> register_guest_mem(int epd, void* addr,
                                              std::size_t len,
                                              RegOffset offset, int prot,
                                              int flags,
                                              bool prebuilt_sg = false);
  /// vreadfrom/vwriteto variants over pinned guest memory (same marking).
  sim::Status vreadfrom_guest(int epd, void* addr, std::size_t len,
                              RegOffset roffset, int flags);
  sim::Status vwriteto_guest(int epd, void* addr, std::size_t len,
                             RegOffset roffset, int flags);

  /// Close every open descriptor (process exit): unblocks any thread
  /// parked in accept/recv on one of them.
  void close_all();

  Fabric& fabric() noexcept { return *fabric_; }

  /// The endpoint behind a descriptor (tests / vphi backend plumbing).
  std::shared_ptr<Endpoint> endpoint(int epd) const VPHI_EXCLUDES(mu_);

 private:
  sim::Expected<std::shared_ptr<Endpoint>> lookup(int epd) const
      VPHI_EXCLUDES(mu_);

  Fabric* fabric_;
  NodeId local_node_;
  mutable sim::Mutex mu_;
  std::map<int, std::shared_ptr<Endpoint>> table_ VPHI_GUARDED_BY(mu_);
  std::map<std::uint64_t, MappedRegion> mappings_ VPHI_GUARDED_BY(mu_);
  int next_epd_ VPHI_GUARDED_BY(mu_) = 3;  // 0..2 feel like stdio; cosmetic
  std::uint64_t next_cookie_ VPHI_GUARDED_BY(mu_) = 1;
};

}  // namespace vphi::scif
