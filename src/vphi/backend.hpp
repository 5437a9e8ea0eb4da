// The vPHI backend device — a virtual PCI device realized as a QEMU
// extension in host user space.
//
// A service thread pops request chains off the VM's virtio ring, maps the
// guest buffers zero-copy (the ring segments arrive pre-translated through
// QEMU's registered guest memory), and replays each SCIF operation against
// the host SCIF driver through its own HostProvider. Because every VM's
// backend is a separate "QEMU process" (its own provider, its own endpoint
// table), the host driver sees multiple ordinary processes — which is the
// whole sharing story of the paper.
//
// Per-opcode execution policy mirrors Sec. III "Blocking vs non-blocking
// mode": most ops run on the QEMU event loop (blocking the VM's other I/O
// while they execute); ops that may stall indefinitely (scif_accept — "we
// do not know beforehand when a corresponding scif_connect will arrive" —
// and scif_poll) run on worker threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "hv/vm.hpp"
#include "scif/host_provider.hpp"
#include "sim/metrics.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"
#include "vphi/protocol.hpp"

namespace vphi::core {

/// Where a request executes in QEMU.
enum class ExecMode { kBlocking, kWorker };

struct BackendPolicy {
  using Classifier = std::function<ExecMode(Op, std::uint32_t payload_len)>;
  Classifier classify = paper_default();

  /// The paper's choice: accept/poll on workers, everything else blocking.
  static Classifier paper_default();
  /// Ablation A2: every op blocks the event loop.
  static Classifier all_blocking();
  /// Ablation A2: every op on a worker thread.
  static Classifier all_worker();
  /// Ablation A2: data transfers above `threshold` bytes go to workers —
  /// the hybrid the paper proposes as future work for the backend side.
  static Classifier hybrid(std::uint32_t threshold);
};

class BackendDevice {
 public:
  BackendDevice(hv::Vm& vm, scif::Fabric& fabric,
                BackendPolicy policy = {});
  ~BackendDevice();

  BackendDevice(const BackendDevice&) = delete;
  BackendDevice& operator=(const BackendDevice&) = delete;

  /// Launch the service thread. Idempotent.
  void start();
  /// Tear down: stop the service thread, close all host endpoints (which
  /// unblocks workers stuck in accept), join workers.
  void stop();

  hv::Vm& vm() noexcept { return *vm_; }

 private:
  /// One service thread per virtqueue: each drains its own ring on its own
  /// actor, so a multi-queue VM's submissions are consumed concurrently and
  /// fairly (no queue can starve another — each has a dedicated consumer).
  void service_loop(std::uint16_t queue);
  void process_chain(sim::Actor& actor, const virtio::Chain& chain,
                     std::uint16_t queue);
  /// Worker dispatch for data-transfer ops: enqueue onto the endpoint's
  /// ordered queue and (if none is active) start a runner worker that
  /// drains it sequentially. A pipelined stream's chunks all target one
  /// endpoint, so independent workers would race and could complete chunk
  /// N+1's send before chunk N's — per-endpoint FIFO makes worker mode
  /// order-safe while still overlapping work across endpoints.
  void dispatch_ordered(virtio::Chain chain, int epd, std::uint16_t queue)
      VPHI_EXCLUDES(ep_mu_);
  /// The guest is untrusted: check every header field against the actual
  /// chain geometry before dispatch. Returns kOk or the rejection status.
  /// `out_len` is the measured length of the readable payload segment;
  /// `chain` is consulted for sg-list geometry (ring-slot overlap checks).
  sim::Status validate_request(const RequestHeader& req,
                               const void* out_payload, std::uint32_t out_len,
                               const void* in_payload,
                               std::uint32_t in_capacity,
                               const virtio::Chain& chain) const;
  /// Zero-copy geometry check: the SgEntry array a kReadfrom/kWriteto with
  /// kReqFlagSgList carries in its out payload must describe page-aligned,
  /// non-overlapping guest ranges that translate, sum to exactly the
  /// transfer length, and stay clear of the chain's own ring slots.
  sim::Status validate_sg_list(const RequestHeader& req,
                               const void* out_payload,
                               const virtio::Chain& chain) const;
  /// Answer a chain that cannot be decoded: write a well-formed error
  /// ResponseHeader into the first usable device-writable segment (if any)
  /// and complete the chain. Malformed chains never die silently.
  void reject_chain(const virtio::Chain& chain, sim::Status status,
                    sim::Nanos done_ts, std::uint16_t queue);
  /// Execute one decoded request against the host provider. Returns the
  /// response plus bytes written into the response payload segment.
  void execute(sim::Actor& actor, const RequestHeader& req,
               const void* out_payload, std::uint32_t out_len,
               void* in_payload, std::uint32_t in_capacity,
               ResponseHeader& resp);

  hv::Vm* vm_;
  scif::Fabric* fabric_;
  BackendPolicy policy_;
  std::unique_ptr<scif::HostProvider> provider_;

  std::vector<std::thread> service_threads_;
  std::atomic<bool> running_{false};

  sim::Mutex mu_;
  std::map<Op, sim::metrics::Counter> op_counts_ VPHI_GUARDED_BY(mu_);
  /// Tenant label ("vm=<name>") on every vphi.be.* instrument: the registry
  /// splits the backend catalogue per VM, aggregates keep their names.
  const std::string label_;
  sim::metrics::Counter worker_requests_;
  sim::metrics::Counter blocking_requests_;
  /// Chains rejected before decoding: missing/short header segment, no
  /// usable response segment, or poisoned (cyclic/corrupted walk; also
  /// counted on poisoned_chains_).
  sim::metrics::Counter malformed_chains_;
  sim::metrics::Counter poisoned_chains_;
  /// Well-formed chains whose header failed validation against the actual
  /// chain geometry (lying payload_len, bad op, bad poll bounds, ...).
  sim::metrics::Counter validation_failures_;

  // Per-endpoint ordered worker queues (transfer ops in worker mode). Each
  // entry remembers the virtqueue the chain arrived on so the completion
  // goes back out the same queue's used ring and interrupt vector.
  struct QueuedChain {
    virtio::Chain chain;
    std::uint16_t queue = 0;
  };
  struct EndpointRunner {
    std::deque<QueuedChain> chains;
    bool running = false;
    sim::Nanos idle_ts = 0;  ///< runner actor's clock when it last went idle
  };
  sim::Mutex ep_mu_;
  std::map<int, EndpointRunner> ep_runners_ VPHI_GUARDED_BY(ep_mu_);

  // scif_mmap bookkeeping: wire cookie -> live host mapping.
  sim::Mutex map_mu_;
  std::map<std::uint64_t, scif::Mapping> live_mappings_
      VPHI_GUARDED_BY(map_mu_);
  std::uint64_t next_map_cookie_ VPHI_GUARDED_BY(map_mu_) = 1;
};

}  // namespace vphi::core
