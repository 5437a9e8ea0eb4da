// Xeon Phi sharing — the capability the paper contributes ("to our
// knowledge, vPHI is the first approach that enables Xeon Phi sharing
// between multiple VMs running on the same physical node").
//
// Three VMs concurrently pull data from one card with RMA reads. Each VM's
// backend is its own QEMU process / host SCIF client, so the host driver
// multiplexes them naturally; the shared PCIe link is the contended
// resource, and the printed per-VM throughputs show the fair split.
//
//   ./build/examples/example_multi_vm [num_vms]
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "scif/types.hpp"
#include "sim/actor.hpp"
#include "tools/testbed.hpp"

using namespace vphi;        // NOLINT(google-build-using-namespace)
using namespace vphi::scif;  // NOLINT(google-build-using-namespace)

namespace {
constexpr Port kBasePort = 1'800;
constexpr std::size_t kChunk = 16ull << 20;
constexpr int kRounds = 4;
/// VM `i`'s RMA read throughput from its card server's window over `epd`
/// (connected here), in GB/s; 0 after printing why if a step fails.
double read_gbps(tools::Testbed& bed, std::uint32_t i, int epd,
                 sim::Actor& actor) {
  auto& guest = bed.vm(i).guest_scif();
  if (!sim::ok(guest.connect(
          epd, PortId{bed.card_node(), static_cast<Port>(kBasePort + i)}))) {
    std::printf("vm%u connect failed\n", i);
    return 0.0;
  }
  auto buf = bed.vm(i).alloc_user_buffer(kChunk);
  if (!buf) return 0.0;
  auto reg = guest.register_mem(epd, *buf, kChunk, 0,
                                SCIF_PROT_READ | SCIF_PROT_WRITE, 0);
  char ready = 0;
  if (!reg || !guest.recv(epd, &ready, 1, SCIF_RECV_BLOCK)) {
    std::printf("vm%u setup failed\n", i);
    return 0.0;
  }

  // Warm-up, then timed reads.
  if (!sim::ok(guest.readfrom(epd, *reg, 4'096, 0, SCIF_RMA_SYNC))) {
    std::printf("vm%u warm-up read failed\n", i);
    return 0.0;
  }
  const sim::Nanos before = actor.now();
  for (int round = 0; round < kRounds; ++round) {
    if (!sim::ok(guest.readfrom(epd, *reg, kChunk, 0, SCIF_RMA_SYNC))) {
      std::printf("vm%u read failed\n", i);
      return 0.0;
    }
  }
  const sim::Nanos elapsed = actor.now() - before;
  return static_cast<double>(kChunk) * kRounds / static_cast<double>(elapsed);
}
}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t num_vms =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3;
  tools::TestbedConfig config;
  config.num_vms = num_vms;
  tools::Testbed bed{config};
  std::printf("%u VMs sharing one %s\n\n", num_vms,
              bed.card().sysfs().get("sku")->c_str());

  // One card-side server per VM, each exporting a device-memory window.
  // Every server listens before any client connects; only accept runs on
  // the server's thread.
  auto& p = bed.card_provider();
  std::vector<int> listeners;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    auto lep = p.open();
    if (!lep || !p.bind(*lep, static_cast<Port>(kBasePort + i)) ||
        !sim::ok(p.listen(*lep, 1))) {
      std::printf("card listen failed\n");
      return 1;
    }
    listeners.push_back(*lep);
  }
  std::vector<std::thread> servers;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    servers.emplace_back([&bed, &p, i, lep = listeners[i]] {
      sim::Actor actor{"card-srv" + std::to_string(i), sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      auto conn = p.accept(lep, SCIF_ACCEPT_SYNC);
      if (!conn) return;
      auto dev = bed.card().memory().allocate(kChunk);
      // SCIF_MAP_FIXED pins the window at offset 0 so clients can name it
      // without an out-of-band exchange; one byte tells the client it is
      // live before the client reads from it.
      char ready = 1;
      if (dev &&
          p.register_mem(conn->epd, bed.card().memory().at(*dev), kChunk, 0,
                         SCIF_PROT_READ, SCIF_MAP_FIXED) &&
          p.send(conn->epd, &ready, 1, SCIF_SEND_BLOCK)) {
        // Stay alive until the client hangs up.
        p.recv(conn->epd, &ready, 1, SCIF_RECV_BLOCK);
      }
      p.close(conn->epd);
    });
  }

  // One client thread per VM, all reading concurrently.
  std::vector<double> gbps(num_vms);
  std::vector<std::thread> clients;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    clients.emplace_back([&bed, &gbps, i] {
      sim::Actor actor{"vm" + std::to_string(i) + "-app",
                       sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      auto& guest = bed.vm(i).guest_scif();
      auto epd = guest.open();
      if (!epd) return;
      gbps[i] = read_gbps(bed, i, *epd, actor);
      // Hanging up ends the server's last recv, on every path.
      guest.close(*epd);
    });
  }
  for (auto& c : clients) c.join();
  for (auto& s : servers) s.join();

  double total = 0.0;
  bool all_read = true;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    std::printf("vm%u RMA read throughput: %.2f GB/s\n", i, gbps[i]);
    total += gbps[i];
    all_read = all_read && gbps[i] > 0.0;
  }
  std::printf("aggregate: %.2f GB/s (one VM alone reaches ~4.6 GB/s; the "
              "PCIe link is the shared bottleneck)\n",
              total);
  return all_read ? 0 : 1;
}
