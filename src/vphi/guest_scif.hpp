// The guest-side SCIF provider (vSCIF).
//
// This is the libscif a process inside the VM links against: the identical
// scif::Provider interface as the native HostProvider, so applications, COI
// and micnativeloadex run unmodified — the paper's binary-compatibility
// property. Every call becomes a vPHI wire request through the frontend
// driver; transfers larger than one bounce buffer are chunked at
// KMALLOC_MAX_SIZE (Sec. III "Implementation details"); scif_register pins
// the guest pages first (Sec. III "Guest memory registration"); scif_mmap
// installs a VM_PFNPHI vma so guest dereferences fault through the modified
// KVM MMU straight onto device memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include "sim/thread_safety.hpp"

#include "scif/provider.hpp"
#include "vphi/frontend.hpp"

namespace vphi::core {

class GuestScifProvider final : public scif::Provider {
 public:
  /// Most chunks one walk keeps in flight, whatever pipeline_window says:
  /// as many 2-descriptor chains as a default 256-entry ring holds.
  static constexpr std::size_t kMaxWindow = 128;

  explicit GuestScifProvider(FrontendDriver& frontend);
  ~GuestScifProvider() override;

  sim::Expected<int> open() override;
  sim::Status close(int epd) override;
  sim::Expected<scif::Port> bind(int epd, scif::Port pn) override;
  sim::Status listen(int epd, int backlog) override;
  sim::Status connect(int epd, scif::PortId dst) override;
  sim::Expected<scif::AcceptResult> accept(int epd, int flags) override;

  sim::Expected<std::size_t> send(int epd, const void* msg, std::size_t len,
                                  int flags) override;
  sim::Expected<std::size_t> recv(int epd, void* msg, std::size_t len,
                                  int flags) override;

  sim::Expected<scif::RegOffset> register_mem(int epd, void* addr,
                                              std::size_t len,
                                              scif::RegOffset offset, int prot,
                                              int flags) override;
  sim::Status unregister_mem(int epd, scif::RegOffset offset,
                             std::size_t len) override;
  sim::Status readfrom(int epd, scif::RegOffset loffset, std::size_t len,
                       scif::RegOffset roffset, int flags) override;
  sim::Status writeto(int epd, scif::RegOffset loffset, std::size_t len,
                      scif::RegOffset roffset, int flags) override;
  sim::Status vreadfrom(int epd, void* addr, std::size_t len,
                        scif::RegOffset roffset, int flags) override;
  sim::Status vwriteto(int epd, void* addr, std::size_t len,
                       scif::RegOffset roffset, int flags) override;

  sim::Expected<scif::Mapping> mmap(int epd, scif::RegOffset roffset,
                                    std::size_t len, int prot) override;
  sim::Status munmap(scif::Mapping& mapping) override;
  sim::Status map_read(const scif::Mapping& mapping, std::size_t off,
                       void* dst, std::size_t n) override;
  sim::Status map_write(const scif::Mapping& mapping, std::size_t off,
                        const void* src, std::size_t n) override;

  sim::Expected<int> fence_mark(int epd, int flags) override;
  sim::Status fence_wait(int epd, int mark) override;
  sim::Status fence_signal(int epd, scif::RegOffset loff, std::uint64_t lval,
                           scif::RegOffset roff, std::uint64_t rval,
                           int flags) override;
  sim::Expected<int> poll(scif::PollEpd* epds, int nepds,
                          int timeout_ms) override;

  sim::Expected<scif::NodeIds> get_node_ids() override;
  sim::Expected<mic::SysfsInfo> card_info(std::uint32_t index) override;

  FrontendDriver& frontend() noexcept { return *frontend_; }

 private:
  /// One control-op round trip: an umbrella span around
  /// FrontendDriver::transact (which replays idempotent ops).
  sim::Expected<FrontendDriver::TransactResult> call(
      const FrontendDriver::TransactArgs& args);

  /// A data op as the chunk walk slices it. Stream ops (kSend, kRecv) move
  /// their buffer by the chunk offset; RMA ops (kReadfrom, kWriteto) move
  /// both window offsets.
  struct DataOp {
    Op op = Op::kSend;
    int epd = 0;
    int flags = 0;
    std::size_t len = 0;
    const std::byte* out = nullptr;  ///< kSend: the caller's bytes
    std::byte* in = nullptr;         ///< kRecv: the caller's buffer
    scif::RegOffset loffset = 0;
    scif::RegOffset roffset = 0;
  };
  /// Outcome of a chunk walk.
  struct PipelineResult {
    std::size_t bytes = 0;  ///< in-order completed prefix
    sim::Status error = sim::Status::kOk;  ///< first failure, kOk if clean
  };
  /// The one chunk walk behind send/recv/readfrom/writeto. Stream ops chunk
  /// at the bounce-buffer size, RMA ops at FrontendConfig::rma_chunk; a
  /// zero-length op still crosses the ring once. Keeps up to
  /// pipeline_window chunks in flight (1 for a non-blocking stream; window
  /// 1 is the paper's serial walk): submits ahead, reaps oldest-first,
  /// stops submitting on the first failure or short completion, and drains
  /// the in-flight siblings, discarding their results, so only the in-order
  /// completed prefix counts. A stream chunk's ret0 is the bytes moved,
  /// validated to [0, chunk], and a short one ends the walk; a kOk RMA
  /// chunk moved its full length. One umbrella span covers the walk.
  PipelineResult run_pipeline(const DataOp& op);
  /// The wire request for the chunk at (off, n) of `op`. A zero-copy RMA
  /// chunk's guest-physical run goes in `sg`, which must outlive the
  /// submit (submit copies the payload into the bounce buffer).
  FrontendDriver::TransactArgs chunk_request(const DataOp& op, std::size_t off,
                                             std::size_t n, SgEntry& sg);
  /// scif_vreadfrom/scif_vwriteto: pin the user range, one request, unpin.
  sim::Status pinned_rma(Op op, int epd, void* addr, std::size_t len,
                         scif::RegOffset roffset, int flags);
  /// A guest dereference of [off, off+n) of a live mmap: the MMU access
  /// plus the per-cache-line charge. Returns the device pointer.
  sim::Expected<std::byte*> map_access(const scif::Mapping& mapping,
                                       std::size_t off, std::size_t n)
      VPHI_EXCLUDES(mu_);
  /// Pin + translate a guest user range for register/vread/vwrite; returns
  /// the gpa.
  sim::Expected<std::uint64_t> pin_user_range(void* addr, std::size_t len);
  /// Zero-copy RMA: the guest-physical run of [loffset, loffset+len) of a
  /// window this provider registered on `epd`. A registered window is one
  /// pinned guest-physical run, so one entry covers any slice. Empty when
  /// zero-copy is off, the length is 0, the range is not fully inside one
  /// registered window, or the slice is not page-aligned; the caller then
  /// sends the plain (sg-less) request.
  std::optional<SgEntry> build_sg(int epd, scif::RegOffset loffset,
                                  std::size_t len) VPHI_EXCLUDES(mu_);

  FrontendDriver* frontend_;

  sim::Mutex mu_;
  /// registered windows: (epd, offset) -> {gpa, len} for unregister unpin.
  std::map<std::pair<int, scif::RegOffset>, std::pair<std::uint64_t, std::size_t>>
      registered_ VPHI_GUARDED_BY(mu_);
  /// live mmaps: guest gva -> {backend cookie, len}.
  struct GuestMapping {
    std::uint64_t backend_cookie = 0;
    std::uint64_t gva = 0;
    std::size_t len = 0;
  };
  /// Keyed by the cookie we mint.
  std::map<std::uint64_t, GuestMapping> mappings_ VPHI_GUARDED_BY(mu_);
  std::uint64_t next_cookie_ VPHI_GUARDED_BY(mu_) = 1;
  /// mmap address space.
  std::uint64_t next_gva_ VPHI_GUARDED_BY(mu_) = 0x7f00'0000'0000ull;
};

}  // namespace vphi::core
