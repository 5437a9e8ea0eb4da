#include "tools/vphi_top.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "scif/types.hpp"
#include "service/fleet_policy.hpp"
#include "service/job_service.hpp"
#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/timeseries.hpp"
#include "tools/testbed.hpp"

namespace vphi::tools {
namespace {

constexpr scif::Port kBasePort = 4'600;

struct Options {
  std::uint32_t vms = 4;
  std::uint32_t rounds = 64;
  std::size_t msg_bytes = 64 * 1024;
  std::uint64_t seed = 42;
  std::uint64_t quota_bytes = 0;      ///< per-tenant bytes/window (0 = off)
  std::uint32_t noisy_vm = ~0u;       ///< VM given 8x rounds (~0 = none)
  bool inject_stall = false;
  bool smoke = false;
  bool timeline = false;  ///< fleet-replay mode with per-tenant sparklines
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--vms N] [--rounds N] [--msg-bytes N] [--seed N] "
               "[--quota-bytes N] [--noisy-vm N] [--inject-stall] [--smoke] "
               "[--timeline]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      opts.timeline = true;
    } else if (std::strcmp(arg, "--inject-stall") == 0) {
      opts.inject_stall = true;
    } else if (std::strcmp(arg, "--vms") == 0 && i + 1 < argc) {
      opts.vms = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
      if (opts.vms == 0 || opts.vms > 16) return false;
    } else if (std::strcmp(arg, "--rounds") == 0 && i + 1 < argc) {
      opts.rounds =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
      if (opts.rounds == 0) return false;
    } else if (std::strcmp(arg, "--msg-bytes") == 0 && i + 1 < argc) {
      opts.msg_bytes = std::strtoull(argv[++i], nullptr, 0);
      if (opts.msg_bytes == 0) return false;
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(arg, "--quota-bytes") == 0 && i + 1 < argc) {
      opts.quota_bytes = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(arg, "--noisy-vm") == 0 && i + 1 < argc) {
      opts.noisy_vm =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else {
      return false;
    }
  }
  if (opts.smoke) {
    opts.vms = 2;
    opts.rounds = 40;
  }
  return true;
}

/// Deterministic per-VM round counts: the seed skews each VM's share of the
/// workload (between half and full base rounds) so the fairness index
/// measures something real instead of trivially reporting 1.0.
std::vector<std::uint32_t> seeded_rounds(const Options& opts) {
  std::vector<std::uint32_t> rounds(opts.vms);
  std::uint64_t x = opts.seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& r : rounds) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t half = opts.rounds / 2;
    r = half + static_cast<std::uint32_t>((x >> 33) % (opts.rounds - half + 1));
    if (r == 0) r = 1;
  }
  return rounds;
}

/// Card-side byte sink: accepts one connection, signals readiness, then
/// receives exactly `total` bytes. One per VM, so every VM's stream has its
/// own card endpoint (the card sees N independent SCIF peers).
class CardSinkServer {
 public:
  CardSinkServer(Testbed& bed, scif::Port port, std::uint64_t total,
                 std::size_t chunk) {
    auto& p = bed.card_provider();
    auto lep = p.open();
    if (!lep) return;
    const int listener = *lep;
    if (!p.bind(listener, port) || !sim::ok(p.listen(listener, 2))) return;
    server_ = std::async(std::launch::async, [&p, listener, total, chunk] {
      sim::Actor actor{"sink", sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      auto conn = p.accept(listener, scif::SCIF_ACCEPT_SYNC);
      if (!conn) return;
      std::uint8_t ready = 1;
      p.send(conn->epd, &ready, 1, scif::SCIF_SEND_BLOCK);
      std::vector<std::uint8_t> buf(chunk);
      std::uint64_t received = 0;
      while (received < total) {
        const auto want = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, total - received));
        auto got = p.recv(conn->epd, buf.data(), want, scif::SCIF_RECV_BLOCK);
        if (!got || *got == 0) break;
        received += *got;
      }
      p.close(conn->epd);
      p.close(listener);
    });
  }

  ~CardSinkServer() {
    if (server_.valid()) server_.wait();
  }

 private:
  std::future<void> server_;
};

struct VmRow {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ring_occ = 0.0;
  std::uint64_t supp_kicks = 0;
  std::uint64_t errors = 0;
  std::uint64_t stalls = 0;
  std::uint64_t card_busy_ns = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::int64_t quota_left = 0;  ///< bytes headroom gauge (0 when unlimited)
};

template <typename T>
T labeled(const std::map<std::string, T>& m, const std::string& label) {
  auto it = m.find(label);
  return it == m.end() ? T{0} : it->second;
}

/// The tool's own honesty check: the per-VM breakdown and the aggregate
/// read the same atomics, so the labeled values must sum to the aggregate
/// counter *exactly*. Returns false (and complains) on any drift.
bool check_sums(const char* name) {
  auto& reg = sim::metrics::registry();
  const auto by_label = reg.counter_by_label(name);
  std::uint64_t sum = 0;
  for (const auto& [label, v] : by_label) sum += v;
  const std::uint64_t aggregate = reg.counter_value(name);
  if (sum != aggregate) {
    std::fprintf(stderr,
                 "vphi-top: %s per-VM sum %llu != aggregate %llu\n", name,
                 static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(aggregate));
    return false;
  }
  return true;
}

/// --timeline: replay a recorded fleet timeline as per-tenant sparklines.
///
/// Runs one sharded multi-tenant fleet with the timeline sampler on, then
/// buckets each tenant's `vphi.tenant.completed` deltas over the simulated
/// time axis and renders them as a unicode sparkline — the terminal
/// approximation of the Perfetto counter track the same points feed.
int run_timeline(const Options& opts) {
  const std::uint32_t vms = std::max<std::uint32_t>(16, opts.vms * 16);
  const std::uint32_t tenants = 4;

  sim::FleetConfig fc;
  fc.vms = vms;
  fc.cards = 8;
  fc.shards = 8;
  fc.seed = opts.seed;
  fc.duration_ns = 20 * sim::kMillisecond;

  service::FleetTenantPolicyConfig pc;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    service::TenantSpec spec;
    spec.name = std::string("t").append(std::to_string(t));
    pc.tenants.push_back(spec);
  }
  pc.enforce = false;  // observe-only: the replay shows the raw traffic shape
  service::FleetTenantPolicy policy{pc, fc};
  fc.hooks = policy.hooks();

  // 64 samples across the run unless VPHI_TIMELINE overrides the cadence.
  sim::Timeline timeline{sim::TimelineConfig::from_env(fc.duration_ns / 64)};
  fc.timeline = &timeline;

  const sim::FleetResult result = sim::run_fleet(fc);

  if (!timeline.enabled()) {
    std::printf("timeline sampling disabled (VPHI_TIMELINE=0)\n");
    return 0;
  }

  // Map each tenant's completed-counter series to its row.
  const auto& names = timeline.series_names();
  std::vector<int> tenant_of_series(names.size(), -1);
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      if (names[s] ==
          "vphi.tenant.completed{tenant=t" + std::to_string(t) + "}") {
        tenant_of_series[s] = static_cast<int>(t);
      }
    }
  }

  constexpr int kWidth = 48;
  const auto span = std::max<sim::Nanos>(1, result.sim_end_ns);
  std::vector<std::vector<double>> buckets(
      tenants, std::vector<double>(kWidth, 0.0));
  std::vector<double> totals(tenants, 0.0);
  for (const auto& p : timeline.points()) {
    const int t = tenant_of_series[p.series];
    if (t < 0) continue;
    const auto b = std::min<sim::Nanos>(
        kWidth - 1, p.ts * kWidth / span);
    buckets[static_cast<std::size_t>(t)][static_cast<std::size_t>(b)] +=
        p.value;
    totals[static_cast<std::size_t>(t)] += p.value;
  }

  std::printf("# vphi-top --timeline: %u VMs / %u tenants, seed %llu, "
              "%llu requests over %.1f ms simulated\n",
              vms, tenants, static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(result.completed),
              static_cast<double>(result.sim_end_ns) / 1e6);
  std::printf("# cadence %lld us, %llu samples, %zu points (%llu dropped)\n",
              static_cast<long long>(timeline.config().cadence_ns / 1'000),
              static_cast<unsigned long long>(timeline.samples_taken()),
              timeline.points().size(),
              static_cast<unsigned long long>(timeline.dropped()));
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  for (std::uint32_t t = 0; t < tenants; ++t) {
    double peak = 0.0;
    for (double v : buckets[t]) peak = std::max(peak, v);
    std::string line;
    for (double v : buckets[t]) {
      if (v <= 0.0 || peak <= 0.0) {
        line += ' ';
        continue;
      }
      const int idx = std::min(
          7, static_cast<int>(v / peak * 8.0));
      line += kBlocks[idx];
    }
    std::printf("%-4s completed/bucket |%s| total %.0f (peak %.0f)\n",
                std::string("t").append(std::to_string(t)).c_str(),
                line.c_str(), totals[t],
                peak);
  }
  if (timeline.points().empty()) {
    std::fprintf(stderr, "vphi-top: timeline captured no points\n");
    return 1;
  }
  return 0;
}

int run(const Options& opts) {
  TestbedConfig config;
  config.num_vms = opts.vms;
  config.vm_ram_bytes = 64ull << 20;
  config.card_backing_bytes = 64ull << 20;
  config.start_coi_daemon = false;
  // Polling keeps the whole run on the simulated clock (no wall-time
  // sleeps), and the timeout bounds the injected-stall phase: the watchdog
  // must flag the stalled request well before the driver gives up on it.
  config.frontend.scheme = core::WaitScheme::kPolling;
  config.frontend.request_timeout_ns = 100'000'000;  // 100 ms simulated
  // A --smoke run completes ~26 requests per VM; keep the watchdog's
  // percentile budget derivable even at that size.
  config.frontend.watchdog_min_samples = 16;
  Testbed bed{config};

  // With tracing on, a watchdog/fault dump carries the victim request's span
  // chain. Observability never advances any clock, so the table's numbers
  // are identical with this line removed.
  sim::tracer().set_enabled(true);

  auto rounds = seeded_rounds(opts);
  if (opts.noisy_vm < opts.vms) rounds[opts.noisy_vm] *= 8;

  // Tenant control plane: every VM is a tenant named after itself. Each
  // scif_send round is one admitted job; with --quota-bytes the per-window
  // byte budget caps how much a noisy VM can actually push.
  service::JobServiceConfig svc_cfg;
  svc_cfg.default_spec.bytes_per_window = opts.quota_bytes;
  svc_cfg.default_spec.window_ns = sim::kSecond;
  service::JobService svc{svc_cfg};
  for (std::uint32_t i = 0; i < opts.vms; ++i) {
    service::TenantSpec spec = svc_cfg.default_spec;
    spec.name = "vm" + std::to_string(i);
    svc.register_tenant(spec);
  }
  // Mirror card-core occupancy charges into the tenants' card-ns ledgers.
  bed.fabric().set_occupancy_listener(
      [&svc](const std::string& tenant, sim::Nanos busy_ns, sim::Nanos now) {
        svc.on_occupancy(tenant, busy_ns, now);
      });

  std::vector<std::unique_ptr<CardSinkServer>> sinks;
  for (std::uint32_t i = 0; i < opts.vms; ++i) {
    sinks.push_back(std::make_unique<CardSinkServer>(
        bed, static_cast<scif::Port>(kBasePort + i),
        static_cast<std::uint64_t>(rounds[i]) * opts.msg_bytes,
        opts.msg_bytes));
  }

  std::vector<std::thread> clients;
  for (std::uint32_t i = 0; i < opts.vms; ++i) {
    clients.emplace_back([&, i] {
      sim::Actor actor{"vm-client" + std::to_string(i), sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      auto& guest = bed.vm(i).guest_scif();
      auto epd_e = guest.open();
      if (!epd_e) return;
      const int epd = *epd_e;
      if (!sim::ok(guest.connect(
              epd, scif::PortId{bed.card_node(),
                                static_cast<scif::Port>(kBasePort + i)}))) {
        return;
      }
      std::uint8_t ready;
      guest.recv(epd, &ready, 1, scif::SCIF_RECV_BLOCK);
      std::vector<std::uint8_t> msg(opts.msg_bytes,
                                    static_cast<std::uint8_t>(i));
      service::Job job;
      job.tenant = "vm" + std::to_string(i);
      job.bytes = opts.msg_bytes;
      job.nthreads = 1;
      job.kernel = "scif-push";
      for (std::uint32_t r = 0; r < rounds[i]; ++r) {
        // Admission gate: an over-quota round is refused before its bytes
        // ever touch the ring. Per-tenant ledgers are independent, so the
        // verdict for vmN does not depend on its neighbors' thread timing.
        const auto verdict = svc.admit(job, actor.now());
        if (!verdict.admitted) continue;
        auto pushed =
            guest.send(epd, msg.data(), msg.size(), scif::SCIF_SEND_BLOCK);
        svc.complete(job.tenant, actor.now());
        if (!pushed) break;
      }
      guest.close(epd);
    });
  }
  for (auto& c : clients) c.join();
  sinks.clear();

  // Optional injected stall: drop the next doorbell, then issue one more
  // request on vm0. Its chain strands in the ring, the polling wait
  // advances simulated time, and once the request's age passes the
  // latency-derived budget the watchdog must fire — exactly once — and
  // dump the flight recorder before the driver's own timeout kicks in.
  if (opts.inject_stall) {
    auto& reg = sim::metrics::registry();
    const std::uint64_t dumps_before = reg.counter_value("vphi.recorder.dumps");
    sim::fault_injector().arm_nth(sim::FaultSite::kKickDrop, 1);
    sim::Actor actor{"vm-staller", sim::Actor::AtNow{}};
    sim::ActorScope scope(actor);
    auto& guest = bed.vm(0).guest_scif();
    auto epd = guest.open();  // idempotent: the bounded retry heals it
    if (epd) guest.close(*epd);
    sim::fault_injector().disarm_all();
    const std::uint64_t stalls =
        labeled(reg.counter_by_label("vphi.watchdog.stalls"), "vm=vm0");
    const std::uint64_t dumps =
        reg.counter_value("vphi.recorder.dumps") - dumps_before;
    std::printf("injected stall: watchdog firings=%llu recorder dumps=%llu "
                "budget=%lld ns\n\n",
                static_cast<unsigned long long>(stalls),
                static_cast<unsigned long long>(dumps),
                static_cast<long long>(labeled(
                    reg.gauge_by_label("vphi.watchdog.budget_ns"), "vm=vm0")));
    if (stalls != 1) {
      std::fprintf(stderr,
                   "vphi-top: expected exactly one watchdog firing, got "
                   "%llu\n",
                   static_cast<unsigned long long>(stalls));
      return 1;
    }
    if (dumps < 1) {
      std::fprintf(stderr, "vphi-top: watchdog fired without a recorder "
                           "dump\n");
      return 1;
    }
  }

  // --- assemble the per-VM table from the labeled registry ------------------
  auto& reg = sim::metrics::registry();
  const auto ops = reg.counter_by_label("vphi.fe.requests");
  const auto bytes_out = reg.counter_by_label("vphi.fe.bytes_out");
  const auto bytes_in = reg.counter_by_label("vphi.fe.bytes_in");
  const auto timeouts = reg.counter_by_label("vphi.fe.timeouts");
  const auto proto_errors = reg.counter_by_label("vphi.fe.protocol_errors");
  const auto supp_kicks = reg.counter_by_label("vphi.ring.kicks_suppressed");
  const auto stalls = reg.counter_by_label("vphi.watchdog.stalls");
  const auto latency = reg.histogram_by_label("vphi.fe.request_latency_ns");
  const auto occupancy = reg.histogram_by_label("vphi.ring.occupancy");
  const auto card_busy = bed.fabric().card_occupancy();
  const auto admitted = reg.counter_by_label("vphi.tenant.admitted");
  const auto rejected = reg.counter_by_label("vphi.tenant.rejected");
  const auto quota_left =
      reg.gauge_by_label("vphi.tenant.quota.bytes_headroom");

  std::vector<VmRow> rows;
  for (std::uint32_t i = 0; i < opts.vms; ++i) {
    VmRow row;
    row.name = "vm" + std::to_string(i);
    const std::string label = "vm=" + row.name;
    row.ops = labeled(ops, label);
    row.bytes_out = labeled(bytes_out, label);
    row.bytes_in = labeled(bytes_in, label);
    row.errors = labeled(timeouts, label) + labeled(proto_errors, label);
    row.supp_kicks = labeled(supp_kicks, label);
    row.stalls = labeled(stalls, label);
    if (auto it = latency.find(label); it != latency.end()) {
      row.p50_us = it->second.percentile(0.50) / 1e3;
      row.p99_us = it->second.percentile(0.99) / 1e3;
    }
    if (auto it = occupancy.find(label); it != occupancy.end()) {
      row.ring_occ = it->second.mean();
    }
    if (auto it = card_busy.find(row.name); it != card_busy.end()) {
      row.card_busy_ns = it->second;
    }
    const std::string tenant_label = "tenant=" + row.name;
    row.admitted = labeled(admitted, tenant_label);
    row.rejected = labeled(rejected, tenant_label);
    if (auto it = quota_left.find(tenant_label); it != quota_left.end()) {
      row.quota_left = it->second;
    }
    rows.push_back(std::move(row));
  }

  std::printf("# vphi-top: %u VM(s) sharing one card, seed %llu, "
              "quota_bytes=%llu/window\n",
              opts.vms, static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(opts.quota_bytes));
  std::printf("%-6s %8s %12s %10s %9s %9s %8s %10s %7s %7s %12s %7s %7s "
              "%12s\n",
              "vm", "ops", "bytes_out", "bytes_in", "p50_us", "p99_us",
              "ring_occ", "supp_kick", "errors", "stalls", "card_busy_us",
              "adm", "rej", "quota_left");
  VmRow total;
  std::vector<double> byte_shares, busy_shares;
  for (const auto& row : rows) {
    std::printf("%-6s %8llu %12llu %10llu %9.2f %9.2f %8.2f %10llu %7llu "
                "%7llu %12.1f %7llu %7llu %12lld\n",
                row.name.c_str(), static_cast<unsigned long long>(row.ops),
                static_cast<unsigned long long>(row.bytes_out),
                static_cast<unsigned long long>(row.bytes_in), row.p50_us,
                row.p99_us, row.ring_occ,
                static_cast<unsigned long long>(row.supp_kicks),
                static_cast<unsigned long long>(row.errors),
                static_cast<unsigned long long>(row.stalls),
                static_cast<double>(row.card_busy_ns) / 1e3,
                static_cast<unsigned long long>(row.admitted),
                static_cast<unsigned long long>(row.rejected),
                static_cast<long long>(row.quota_left));
    total.ops += row.ops;
    total.bytes_out += row.bytes_out;
    total.bytes_in += row.bytes_in;
    byte_shares.push_back(
        static_cast<double>(row.bytes_out + row.bytes_in));
    busy_shares.push_back(static_cast<double>(row.card_busy_ns));
  }
  std::printf("%-6s %8llu %12llu %10llu\n", "total",
              static_cast<unsigned long long>(total.ops),
              static_cast<unsigned long long>(total.bytes_out),
              static_cast<unsigned long long>(total.bytes_in));

  std::printf("\nfairness (Jain): bytes=%.4f card_occupancy=%.4f\n",
              sim::jain_index(byte_shares), sim::jain_index(busy_shares));

  // Per-VM columns must reproduce the aggregate counters exactly.
  bool ok = true;
  for (const char* name :
       {"vphi.fe.requests", "vphi.fe.bytes_out", "vphi.fe.bytes_in",
        "vphi.fe.timeouts", "vphi.fe.protocol_errors",
        "vphi.watchdog.stalls", "vphi.card.busy_ns",
        "vphi.tenant.admitted", "vphi.tenant.rejected",
        "vphi.tenant.throttled", "vphi.tenant.completed"}) {
    ok = check_sums(name) && ok;
  }
  if (!ok) return 1;
  std::printf("per-VM sums match aggregates exactly\n");
  return 0;
}

}  // namespace
}  // namespace vphi::tools

namespace vphi::tools {

int vphi_top_main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    usage(argc > 0 ? argv[0] : "vphi-top");
    return 2;
  }
  if (opts.timeline) return run_timeline(opts);
  return run(opts);
}

}  // namespace vphi::tools
