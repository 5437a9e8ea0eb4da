// Calibrated cost model.
//
// Every timing constant used anywhere in the simulator lives in this one
// struct. The defaults are calibrated so the simulated testbed reproduces the
// numbers the vPHI paper measured on real hardware (Xeon E5-2695v2 host,
// Xeon Phi 3120P, QEMU-KVM 2.2.50). Each field's comment names the paper
// anchor it serves. Benches and tests construct alternative models to run
// ablations (e.g. a slower link, a cheaper wakeup scheme).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace vphi::sim {

struct CostModel {
  // --- Host SCIF native path -----------------------------------------------
  // Anchor: Fig. 4 — host 1-byte send/recv latency is 7 us end to end.
  // The five stages below sum to 7.0 us for a payload that rides the
  // doorbell (driver processing + PCIe hop + DMA setup + remote delivery).
  Nanos host_syscall_ns = 500;        ///< user->kernel ioctl entry/exit
  Nanos scif_host_driver_ns = 1'000;  ///< host SCIF driver request handling
  Nanos pcie_hop_ns = 900;            ///< one PCIe traversal (doorbell/MMIO)
  Nanos dma_setup_ns = 3'600;         ///< programming a DMA channel
  Nanos scif_card_driver_ns = 1'000;  ///< uOS SCIF driver delivery to endpoint

  // --- PCIe / DMA bandwidths ------------------------------------------------
  // Anchor: Fig. 5 — host remote read tops out at 6.4 GB/s. With the
  // dma_setup above, 6.45e9 B/s asymptotic gives 6.40 GB/s at 64 MiB.
  double dma_bandwidth_Bps = 6.45e9;
  // Scatter-gather descriptor cost per (4 KiB) page when the DMA target is
  // *not* physically contiguous on the host — i.e. pinned guest memory seen
  // through QEMU. Anchor: Fig. 5 — vPHI remote read tops out at 4.6 GB/s
  // (72% of host). The guest driver issues one RMA command per
  // FrontendConfig::rma_chunk (16 MiB), so a 64 MiB read pays 4 serial ring
  // round trips (~380 us fixed each) on top of the DMA; 185 ns/page closes
  // the rest of the 1/4.6e9 - 1/6.45e9 = 62.4 ps/B gap.
  Nanos dma_sg_per_page_ns = 185;
  // Same descriptor cost when the sg-list was prebuilt once at
  // scif_register time (zero-copy registered windows): the engine replays a
  // cached descriptor table instead of walking page structs per transfer,
  // so only the fetch of each prebuilt descriptor remains. Anchor: the
  // ISSUE 7 target of >= 5.5 GB/s for the 64 MiB vPHI remote read.
  Nanos dma_prebuilt_sg_per_page_ns = 60;
  std::uint64_t dma_page_bytes = 4'096;

  // Programmed-I/O RMA (SCIF_RMA_USECPU): CPU loads/stores through the BAR.
  double rma_cpu_bandwidth_Bps = 2.0e9;

  // Two-way (send/recv) data path rides bounce buffers + DMA; effective
  // stream bandwidth is lower than raw RMA. Used for micnativeloadex's
  // binary/library streaming (Figs. 6-8 launch phase).
  double scif_stream_bandwidth_Bps = 5.2e9;

  // Pinning user pages for RMA (get_user_pages), per 4 KiB page.
  Nanos pin_per_page_ns = 200;

  // --- Memory copies ---------------------------------------------------------
  double host_memcpy_Bps = 9.0e9;   ///< host user<->kernel copies (DDR3-1600)
  double guest_memcpy_Bps = 7.0e9;  ///< guest user<->kernel copies (virtualized)
  Nanos copy_setup_ns = 300;        ///< fixed cost per copy_{to,from}_user

  // --- vPHI split-driver path -------------------------------------------------
  // Anchor: Fig. 4 — vPHI 1-byte latency is 382 us, i.e. 375 us of
  // virtualization overhead over the 7 us native path, and the Sec. IV-B
  // breakdown attributes 93% of that overhead to the frontend's sleep/wake
  // waiting scheme. The stages below sum to 375 us with the wakeup scheme at
  // 349 us (93.07%).
  Nanos fe_prepare_ns = 3'000;        ///< frontend ioctl intercept + req build
  Nanos fe_copy_fixed_ns = 1'500;     ///< guest copy_from_user fixed part
  Nanos virtio_enqueue_ns = 1'000;    ///< descriptor chain post to avail ring
  Nanos kick_vmexit_ns = 2'000;       ///< MMIO kick -> VM exit -> QEMU notify
  Nanos be_dispatch_ns = 4'000;       ///< backend pop + guest-buffer mapping
  Nanos be_complete_ns = 3'000;       ///< backend used-ring push
  Nanos irq_inject_ns = 5'000;        ///< KVM virtual interrupt injection
  Nanos guest_irq_handler_ns = 3'000; ///< guest ISR entry + ring scan
  Nanos guest_wakeup_scheme_ns = 349'000;  ///< wake_up_all + sched-in of waiter
  Nanos fe_complete_ns = 2'000;       ///< frontend response demux
  Nanos fe_copyback_fixed_ns = 1'500; ///< guest copy_to_user fixed part

  // Extra wakeup cost per *additional* sleeper on the frontend wait queue:
  // the paper's scheme wakes all sleepers and each checks the shared ring.
  Nanos wakeup_per_extra_sleeper_ns = 4'000;

  // Polling-mode alternative (ablation A1): the frontend spins on the used
  // ring instead of sleeping. One probe of the spin loop: the spin detects
  // a completion at the first probe at or after its used-ring time (at
  // least one probe), and that many probes are charged as vCPU burn — host
  // iterations of the simulator's own loop cost nothing.
  Nanos poll_spin_ns = 200;

  // Pipelined transfers: cost of reaping an already-delivered completion
  // from the used ring (no sleep, no interrupt — the coalesced IRQ of an
  // earlier chunk in the window already drained it). This is what replaces
  // the 357 us sleep/wake path for all but the last chunk of a batch.
  Nanos pipeline_reap_ns = 500;

  // Backend worker-thread mode (ablation A2): cost of handing a request to a
  // worker and of the worker rejoining the event loop, vs. blocking the loop.
  Nanos worker_handoff_ns = 9'000;
  // While the event loop is blocked, other VM progress stalls; we account a
  // stall penalty per blocked microsecond when the VM has concurrent I/O.
  double evloop_block_penalty = 1.0;

  // --- KVM / mmap path ---------------------------------------------------------
  Nanos ept_fault_ns = 12'000;     ///< guest #PF -> KVM -> resolve VM_PFNPHI
  Nanos mmio_access_ns = 250;      ///< one load/store to mapped device memory
  Nanos mmap_setup_per_page_ns = 150;  ///< PTE setup inside scif_mmap

  // --- Xeon Phi 3120P card ------------------------------------------------------
  // 57 in-order cores @ 1.1 GHz, 4 hw threads/core, 512-bit DP FMA
  // (16 flop/cycle/core); core 0 is reserved for the uOS, leaving 56 cores —
  // which is exactly why the paper sweeps 56/112/224 threads.
  std::uint32_t mic_cores = 57;
  std::uint32_t mic_reserved_cores = 1;
  std::uint32_t mic_threads_per_core = 4;
  double mic_core_hz = 1.1e9;
  double mic_flops_per_cycle = 16.0;
  std::uint64_t mic_memory_bytes = 6ull << 30;  ///< 6 GB GDDR5
  double mic_mem_bandwidth_Bps = 240e9;         ///< GDDR5 aggregate
  Nanos uos_timeslice_ns = 1'000'000;           ///< uOS CFS-ish timeslice
  Nanos uos_ctx_switch_ns = 5'000;              ///< context switch on a KNC core
  /// Amortized per-thread startup cost of the card-side OpenMP/pthread
  /// pool (spawning fans out tree-wise, so the effective serial cost per
  /// thread is far below a lone pthread_create).
  Nanos uos_spawn_thread_ns = 20'000;
  Nanos uos_exec_setup_ns = 8'000'000;          ///< exec + loader on the card

  // KNC in-order pipeline issues from one thread every other cycle: a single
  // hw thread reaches at most ~50% of a core's peak. Issue efficiency by
  // resident hw threads per core (index 1..4), calibrated to MKL behaviour.
  double mic_issue_eff[5] = {0.0, 0.50, 0.88, 0.93, 0.95};

  // --- COI / micnativeloadex (Figs. 6-8 launch phase) ----------------------------
  // dgemm linked against MKL drags large shared objects to the card.
  std::uint64_t loadex_binary_bytes = 2ull << 20;    ///< the MIC executable
  std::uint64_t loadex_library_bytes = 350ull << 20; ///< MKL + OpenMP deps
  std::uint32_t loadex_control_msgs = 200;           ///< small COI RPCs
  Nanos coi_process_create_ns = 40'000'000;          ///< daemon fork/exec etc.

  /// The model calibrated to the paper's testbed (the defaults above).
  static const CostModel& paper() {
    static const CostModel m{};
    return m;
  }

  // Derived helpers ------------------------------------------------------------

  /// Native host one-way small-message latency (the 7 us anchor).
  Nanos host_small_msg_ns() const {
    return host_syscall_ns + scif_host_driver_ns + pcie_hop_ns + dma_setup_ns +
           scif_card_driver_ns;
  }

  /// Fixed vPHI split-driver overhead for one request/response round trip
  /// through the ring with the interrupt-based waiting scheme (the 375 us
  /// anchor), excluding data-size-dependent copies.
  Nanos vphi_ring_roundtrip_ns() const {
    return fe_prepare_ns + fe_copy_fixed_ns + virtio_enqueue_ns +
           kick_vmexit_ns + be_dispatch_ns + be_complete_ns + irq_inject_ns +
           guest_irq_handler_ns + guest_wakeup_scheme_ns + fe_complete_ns +
           fe_copyback_fixed_ns;
  }

  /// DMA duration for `bytes` into a target fragmented at page granularity
  /// (`fragmented` = pinned guest memory) or physically contiguous.
  /// `prebuilt` selects the cheaper per-page rate for windows whose sg-list
  /// was built once at registration time (zero-copy path).
  Nanos dma_transfer_ns(std::uint64_t bytes, bool fragmented,
                        bool prebuilt = false) const {
    Nanos t = transfer_time(bytes, dma_bandwidth_Bps);
    if (fragmented && bytes > 0) {
      const std::uint64_t pages = (bytes + dma_page_bytes - 1) / dma_page_bytes;
      t += pages * (prebuilt ? dma_prebuilt_sg_per_page_ns
                             : dma_sg_per_page_ns);
    }
    return t;
  }
};

}  // namespace vphi::sim
