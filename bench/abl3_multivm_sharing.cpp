// Ablation A3 — Xeon Phi sharing across VMs: the paper's headline
// capability, quantified.
//
// N VMs concurrently issue RMA reads against one card. Each VM's backend
// is an independent QEMU process / host SCIF client (exactly the paper's
// sharing mechanism); the PCIe link arbitrates. Reported: per-VM and
// aggregate throughput for N = 1, 2, 4, 8.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/stats.hpp"

namespace vphi::bench {
namespace {

constexpr std::size_t kChunk = 8ull << 20;
constexpr int kRounds = 4;

struct SharingResult {
  double min_gbps = 0.0;
  double max_gbps = 0.0;
  double aggregate_gbps = 0.0;
  double jain_gbps = 1.0;  // fairness of per-VM throughput
  double jain_card = 1.0;  // fairness of per-VM card-core busy time
};

SharingResult measure(std::uint32_t num_vms, scif::Port base_port) {
  tools::TestbedConfig config;
  config.num_vms = num_vms;
  config.vm_ram_bytes = 64ull << 20;
  config.card_backing_bytes = (kChunk + (1 << 20)) * num_vms + (64ull << 20);
  tools::Testbed bed{config};

  std::vector<std::unique_ptr<RmaWindowServer>> servers;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    servers.push_back(std::make_unique<RmaWindowServer>(
        bed, static_cast<scif::Port>(base_port + i), kChunk));
  }

  std::vector<double> gbps(num_vms, 0.0);
  std::vector<sim::Nanos> starts(num_vms, 0), ends(num_vms, 0);
  // Every client's timed rounds start at one simulated instant, the latest
  // warm-up end, so the row measures how the link is shared and not how
  // far apart host thread order started the windows.
  std::vector<sim::Nanos> warm_ends(num_vms, 0);
  std::barrier warmed{static_cast<std::ptrdiff_t>(num_vms)};
  std::vector<std::thread> clients;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    clients.emplace_back([&, i] {
      sim::Actor actor{"vm-client" + std::to_string(i), sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      auto& guest = bed.vm(i).guest_scif();
      const int epd = connect_to_card(
          bed, guest, static_cast<scif::Port>(base_port + i));
      // A client that cannot set up leaves the barrier to the others.
      const auto give_up = [&warmed] { warmed.arrive_and_drop(); };
      if (epd < 0) return give_up();
      std::uint8_t ready;
      guest.recv(epd, &ready, 1, scif::SCIF_RECV_BLOCK);
      auto buf = bed.vm(i).alloc_user_buffer(kChunk);
      if (!buf) return give_up();
      auto reg = guest.register_mem(
          epd, *buf, kChunk, 0,
          scif::SCIF_PROT_READ | scif::SCIF_PROT_WRITE, 0);
      if (!reg) return give_up();
      // Warm-up, then timed rounds bracketed by start/end stamps.
      guest.readfrom(epd, *reg, kChunk, 0, scif::SCIF_RMA_SYNC);
      warm_ends[i] = actor.now();
      warmed.arrive_and_wait();
      actor.sync_to(*std::max_element(warm_ends.begin(), warm_ends.end()));
      starts[i] = actor.now();
      for (int round = 0; round < kRounds; ++round) {
        guest.readfrom(epd, *reg, kChunk, 0, scif::SCIF_RMA_SYNC);
      }
      ends[i] = actor.now();
      gbps[i] = static_cast<double>(kChunk) * kRounds /
                static_cast<double>(ends[i] - starts[i]);
      std::uint8_t bye = 0;
      guest.send(epd, &bye, 1, scif::SCIF_SEND_BLOCK);
      guest.close(epd);
    });
  }
  for (auto& c : clients) c.join();
  servers.clear();

  SharingResult result;
  result.min_gbps = gbps[0];
  sim::Nanos first_start = starts[0], last_end = ends[0];
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    result.min_gbps = std::min(result.min_gbps, gbps[i]);
    result.max_gbps = std::max(result.max_gbps, gbps[i]);
    first_start = std::min(first_start, starts[i]);
    last_end = std::max(last_end, ends[i]);
  }
  // Honest aggregate: all bytes moved over the union of the measurement
  // windows (summing per-VM rates would overcount when windows drift).
  if (last_end > first_start) {
    result.aggregate_gbps = static_cast<double>(kChunk) * kRounds * num_vms /
                            static_cast<double>(last_end - first_start);
  }
  // Fairness of the multiplexing: Jain's index over per-VM throughput and
  // over the per-VM card-core busy time charged by the backends.
  result.jain_gbps = sim::jain_index(gbps);
  std::vector<double> busy;
  for (const auto& [vm, ns] : bed.fabric().card_occupancy()) {
    busy.push_back(static_cast<double>(ns));
  }
  if (!busy.empty()) result.jain_card = sim::jain_index(busy);
  return result;
}

void run() {
  print_header(
      "Ablation A3: multi-VM Xeon Phi sharing",
      "multiple VMs = multiple host SCIF processes; the card and link "
      "multiplex them (the capability no prior Xeon Phi solution offered)");

  BenchJson json{"abl3_multivm_sharing"};
  sim::FigureTable table{"A3 concurrent RMA read throughput (GB/s)", "vms"};
  sim::Series per_min{"per_vm_min", {}, {}};
  sim::Series per_max{"per_vm_max", {}, {}};
  sim::Series aggregate{"aggregate", {}, {}};
  sim::Series fairness{"jain_fairness", {}, {}};

  scif::Port base = 3'400;
  for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const auto r = measure(n, base);
    base = static_cast<scif::Port>(base + n);
    per_min.add(n, r.min_gbps);
    per_max.add(n, r.max_gbps);
    aggregate.add(n, r.aggregate_gbps);
    fairness.add(n, r.jain_gbps);
    json.add("rma_read_aggregate_vms" + std::to_string(n), 8ull << 20, 0.0,
             r.aggregate_gbps);
    json.add("fairness_jain_vms" + std::to_string(n), 0, 0.0, r.jain_gbps);
    json.add("fairness_card_vms" + std::to_string(n), 0, 0.0, r.jain_card);
  }
  table.add_series(per_min);
  table.add_series(per_max);
  table.add_series(aggregate);
  table.add_series(fairness);
  table.print(std::cout);
  std::printf(
      "\n(8 MiB reads: one VM alone sees ~4.65 GB/s. Every VM's timed rounds\n"
      " start at one simulated instant, so from 2 VMs on the link stays\n"
      " busy: the aggregate rises to ~5.5-5.8 GB/s and the slowest VM gets\n"
      " about aggregate/N. per_vm_max runs above that because the link\n"
      " grants DMA in host call order, not by simulated time)\n");
}

}  // namespace
}  // namespace vphi::bench

int main(int argc, char** argv) {
  vphi::bench::parse_seed(argc, argv);
  vphi::bench::run();
  return 0;
}
