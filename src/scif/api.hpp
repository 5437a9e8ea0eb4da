// C-style libscif shim.
//
// The exact function surface of Intel's libscif, routed to whichever
// Provider is bound to the calling process context. This is the layer the
// paper's "no recompilation needed" claim lives at: a program written
// against scif_open()/scif_send()/... runs on the host (HostProvider bound)
// or inside a VM (GuestScifProvider bound) without source changes.
//
// Calls return 0 / a non-negative count on success and -1 on failure with
// the Status available via scif_last_error(), mirroring errno semantics.
#pragma once

#include <cstddef>

#include "scif/provider.hpp"
#include "scif/types.hpp"
#include "sim/status.hpp"

namespace vphi::scif::api {

using scif_epd_t = int;

/// Bind `provider` as the process context for the C-style calls on this
/// thread and its children (RAII; nests).
class ProcessContext {
 public:
  explicit ProcessContext(Provider& provider);
  ~ProcessContext();

  ProcessContext(const ProcessContext&) = delete;
  ProcessContext& operator=(const ProcessContext&) = delete;

 private:
  Provider* previous_;
};

/// Status of the most recent failed call on this thread (errno analogue).
sim::Status scif_last_error() noexcept;

scif_epd_t scif_open();
int scif_close(scif_epd_t epd);
int scif_bind(scif_epd_t epd, Port pn);
int scif_listen(scif_epd_t epd, int backlog);
int scif_connect(scif_epd_t epd, const PortId* dst);
int scif_accept(scif_epd_t epd, PortId* peer, scif_epd_t* newepd, int flags);
long scif_send(scif_epd_t epd, const void* msg, std::size_t len, int flags);
long scif_recv(scif_epd_t epd, void* msg, std::size_t len, int flags);
long scif_register(scif_epd_t epd, void* addr, std::size_t len,
                   RegOffset offset, int prot, int flags);
int scif_unregister(scif_epd_t epd, RegOffset offset, std::size_t len);
int scif_readfrom(scif_epd_t epd, RegOffset loffset, std::size_t len,
                  RegOffset roffset, int flags);
int scif_writeto(scif_epd_t epd, RegOffset loffset, std::size_t len,
                 RegOffset roffset, int flags);
int scif_vreadfrom(scif_epd_t epd, void* addr, std::size_t len,
                   RegOffset roffset, int flags);
int scif_vwriteto(scif_epd_t epd, void* addr, std::size_t len,
                  RegOffset roffset, int flags);
int scif_fence_mark(scif_epd_t epd, int flags, int* mark);
int scif_fence_wait(scif_epd_t epd, int mark);
int scif_fence_signal(scif_epd_t epd, RegOffset loff, std::uint64_t lval,
                      RegOffset roff, std::uint64_t rval, int flags);
int scif_poll(PollEpd* epds, unsigned int nepds, long timeout_ms);
int scif_get_node_ids(NodeId* nodes, int len, NodeId* self);

/// scif_mmap/scif_munmap use the Mapping value type rather than raw void*
/// because the simulator must track the mapping cookie.
int scif_mmap(scif_epd_t epd, RegOffset roffset, std::size_t len, int prot,
              Mapping* out);
int scif_munmap(Mapping* mapping);

}  // namespace vphi::scif::api
