// Ablation A1 — the frontend waiting scheme: interrupt vs polling vs the
// hybrid the paper proposes as future work.
//
// Sec. IV-B: the sleep/wake scheme is 93% of the vPHI latency overhead;
// the paper plans "a hybrid approach that uses each time the best of the
// two available schemes depending on the requested data size, so we can
// enable near-native latency for small data sizes, while retaining
// acceptable transfer rate for larger ones". This bench quantifies all
// three schemes across message sizes, including the polling scheme's CPU
// cost (the reason the paper rejected always-polling).
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "sim/stats.hpp"
#include "vphi/frontend.hpp"

namespace vphi::bench {
namespace {

const std::size_t kSizes[] = {64, 1'024, 16'384, 65'536, 262'144};
constexpr int kRounds = 4;

struct SchemeResult {
  double latency_us = 0.0;
  double cpu_burn_us = 0.0;  ///< per request
};

SchemeResult measure_scheme(core::WaitScheme scheme, std::size_t size,
                            scif::Port port) {
  tools::TestbedConfig config;
  config.frontend.scheme = scheme;
  tools::Testbed bed{config};

  LatencySink sink{bed, port, size};
  sim::Actor actor{"client", sim::Actor::AtNow{}};
  sim::ActorScope scope(actor);
  auto& guest = bed.vm(0).guest_scif();
  const int epd = connect_to_card(bed, guest, port);
  if (epd < 0) return {};
  const sim::Nanos burn_before = bed.vm(0).frontend().poll_cpu_burn();
  const sim::Nanos lat = measure_send_latency(guest, epd, size, kRounds);
  const sim::Nanos burn_after = bed.vm(0).frontend().poll_cpu_burn();
  guest.close(epd);
  return SchemeResult{
      sim::to_micros(lat),
      sim::to_micros((burn_after - burn_before)) / (kRounds + 1)};
}

void run() {
  print_header("Ablation A1: frontend waiting scheme",
               "interrupt pays ~352 us of sleep/wake per request; polling "
               "approaches native latency but burns vCPU; hybrid switches "
               "at a size threshold (the paper's future work)");

  BenchJson json{"abl1_waiting_scheme"};
  sim::FigureTable table{"A1 guest send latency by waiting scheme (us)",
                         "msg_bytes"};
  sim::Series interrupt_s{"interrupt_us", {}, {}};
  sim::Series polling_s{"polling_us", {}, {}};
  sim::Series hybrid_s{"hybrid_us", {}, {}};
  sim::Series burn_s{"poll_burn_us", {}, {}};

  scif::Port port = 3'000;
  for (const std::size_t size : kSizes) {
    const auto irq = measure_scheme(core::WaitScheme::kInterrupt, size, port++);
    const auto poll = measure_scheme(core::WaitScheme::kPolling, size, port++);
    const auto hybrid = measure_scheme(core::WaitScheme::kHybrid, size, port++);
    interrupt_s.add(static_cast<double>(size), irq.latency_us);
    polling_s.add(static_cast<double>(size), poll.latency_us);
    hybrid_s.add(static_cast<double>(size), hybrid.latency_us);
    burn_s.add(static_cast<double>(size), poll.cpu_burn_us);
    json.add("send_interrupt", size, irq.latency_us * 1e3, 0.0);
    json.add("send_polling", size, poll.latency_us * 1e3, 0.0);
    json.add("send_hybrid", size, hybrid.latency_us * 1e3, 0.0);
  }
  table.add_series(interrupt_s);
  table.add_series(polling_s);
  table.add_series(hybrid_s);
  table.add_series(burn_s);
  table.print(std::cout);
  std::printf(
      "\n(hybrid threshold = 32 KiB: below it, latency follows the polling\n"
      " curve; above it, the interrupt curve — per the paper's proposal)\n");
}

}  // namespace
}  // namespace vphi::bench

int main(int argc, char** argv) {
  vphi::bench::parse_seed(argc, argv);
  vphi::bench::run();
  return 0;
}
