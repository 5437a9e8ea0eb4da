// coi_daemon — the card-resident service that receives offload requests.
//
// On a real card the MPSS init scripts start coi_daemon after the uOS
// boots; it listens on a well-known SCIF port, receives binaries and
// run-function requests from host-side COI clients, and manages card
// processes. Our daemon does the same against the simulated card: it
// charges streaming time for the binary bytes, exec/loader cost, spawns
// the requested number of uOS threads (modeled), and runs the binary's
// entry kernel from the KernelRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include "sim/thread_safety.hpp"
#include <thread>
#include <vector>

#include "coi/binary.hpp"
#include "coi/wire.hpp"
#include "mic/card.hpp"
#include "scif/host_provider.hpp"
#include "service/job_service.hpp"
#include "sim/metrics.hpp"

namespace vphi::coi {

class Daemon {
 public:
  Daemon(scif::Fabric& fabric, mic::Card& card, scif::NodeId card_node);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Begin accepting connections. Idempotent.
  sim::Status start();
  void stop();

  /// Install the tenant control plane. Every kCreateProcess is then run
  /// through JobService::admit (rejections go back on the wire as a
  /// structured kError: {u32 reason, string detail}), and kRunFunction
  /// pays JobService::throttle_delay for the process's tenant before the
  /// kernel runs. Must be called before start(); null disables admission.
  void set_job_service(service::JobService* svc) { job_service_ = svc; }

 private:
  struct CardProcess {
    std::uint64_t pid = 0;
    BinaryImage image;
    std::string tenant;  ///< billing identity (wire field, or image name)
    std::uint32_t nthreads = 1;
    std::vector<std::string> args;
    std::vector<std::uint64_t> buffers;  ///< device-memory offsets owned
  };

  void accept_loop();
  void serve_connection(int epd);
  /// Run `image.entry_kernel` as the process main; returns exit code.
  int run_kernel(CardProcess& proc, sim::Actor& actor, std::string& output);

  scif::Fabric* fabric_;
  mic::Card* card_;
  scif::NodeId card_node_;
  service::JobService* job_service_ = nullptr;  ///< set before start()
  std::unique_ptr<scif::HostProvider> provider_;
  int listener_epd_ = -1;

  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  sim::Mutex conn_mu_;
  std::vector<std::thread> connections_ VPHI_GUARDED_BY(conn_mu_);

  sim::Mutex pid_mu_;
  std::uint64_t next_pid_ VPHI_GUARDED_BY(pid_mu_) = 1;
  sim::metrics::Counter processes_created_;
  sim::metrics::Counter functions_run_;
};

}  // namespace vphi::coi
