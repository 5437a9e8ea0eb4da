// Ablation 8 — fleet-scale engine: one seeded open-loop scenario swept
// over {64, 256, 1000} VMs, plus a closed-loop run at 256 VMs.
//
// What the paper-scale story needs from this bench:
//  - the engine completes a 1000-VM seeded run;
//  - same seed => bit-identical metrics snapshot. The binary re-runs the
//    256-VM scenario twice in-process and fails (exit 1) on any snapshot
//    diff; `--snapshot=<path>` additionally dumps the sweep's snapshot so
//    the check_fleet ctest can diff two *processes*.
//  - the 256-VM open-loop run carries the virtual-time metric timeline
//    (sim::Timeline, cadence from `VPHI_TIMELINE` or duration/64): the
//    point stream is dumped verbatim via `--timeline-out=<path>` so
//    check_fleet can byte-compare two same-seed processes' timelines too.
//
// Row convention in BENCH_abl8_fleet_scale.json: `size` is the VM count.
// Every row is simulated/deterministic and must reproduce exactly. Engine
// wall speed is measured by bench/perf, not here.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/timeseries.hpp"

namespace vphi::bench {
namespace {

sim::FleetConfig fleet_config(std::uint64_t seed, bool smoke,
                              std::uint32_t vms) {
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.vms = vms;
  cfg.shards = 8;
  // Scale the card pool with the fleet, and keep the count coprime to the
  // shard count: vm v lives on shard v % shards and talks to card
  // v % cards, so a card count divisible by the shard count would make
  // every doorbell shard-local and leave the cross-shard channels idle.
  cfg.cards = vms / 25 + 9;
  if (cfg.cards % cfg.shards == 0) ++cfg.cards;
  cfg.duration_ns = smoke ? 2 * sim::kMillisecond : 10 * sim::kMillisecond;
  cfg.traffic.open_loop = true;
  cfg.traffic.rate_hz = smoke ? 10'000.0 : 20'000.0;
  // Exercise the full generator: a ramp, periodic 3x bursts, tenant churn,
  // and a mid-run disconnect storm hitting every 7th VM.
  cfg.traffic.rate_slope_per_s = 1'000.0;
  cfg.traffic.burst_factor = 3.0;
  cfg.traffic.burst_period_ns = 1 * sim::kMillisecond;
  cfg.traffic.burst_len_ns = 100'000;
  cfg.traffic.churn_disconnect_prob = 0.001;
  cfg.traffic.churn_down_ns = 200'000;
  cfg.traffic.storm_at_ns = cfg.duration_ns / 2;
  cfg.traffic.storm_len_ns = 500'000;
  cfg.traffic.storm_stride = 7;
  return cfg;
}

int run(int argc, char** argv) {
  const std::uint64_t seed = parse_seed(argc, argv);
  const bool smoke = smoke_mode(argc, argv);
  std::string snapshot_path;
  std::string timeline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--snapshot=", 11) == 0) {
      snapshot_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--timeline-out=", 15) == 0) {
      timeline_path = argv[i] + 15;
    }
  }

  print_header("Ablation 8: fleet-scale engine, 64-1000 VMs",
               "same seed, bit-identical simulated results at every fleet "
               "size");

  auto& reg = sim::metrics::registry();

  // Determinism gate first: same seed, same config, twice, bit-identical
  // snapshot JSON. Runs before the sweep so the sweep's metrics are not
  // mixed into the compared snapshots.
  {
    const sim::FleetConfig cfg = fleet_config(seed, /*smoke=*/true, 256);
    reg.reset();
    (void)sim::run_fleet(cfg);
    const std::string first = reg.snapshot_json();
    reg.reset();
    (void)sim::run_fleet(cfg);
    const std::string second = reg.snapshot_json();
    reg.reset();
    if (first != second) {
      std::fprintf(stderr,
                   "abl8: same-seed snapshots differ (seed=%llu)\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
    std::printf("determinism: seed=%llu run twice, snapshots identical\n\n",
                static_cast<unsigned long long>(seed));
  }

  BenchJson json{"abl8_fleet_scale"};
  json.set_engine_shards(8);

  std::printf("%8s %12s %12s %10s %12s %10s\n", "vms", "requests", "p99_us",
              "epochs", "xshard", "imbal");

  std::string timeline_json;
  for (const std::uint32_t vms : {64u, 256u, 1000u}) {
    sim::FleetConfig cfg = fleet_config(seed, smoke, vms);
    // Timeline sampling rides the 256-VM run only: the engine re-baselines
    // an attached timeline per run, so one focused attachment keeps the
    // dumped stream a single scenario's worth of points.
    sim::Timeline timeline{
        sim::TimelineConfig::from_env(cfg.duration_ns / 64)};
    if (vms == 256) cfg.timeline = &timeline;
    const sim::FleetResult r = sim::run_fleet(cfg);
    if (vms == 256 && timeline.enabled()) {
      timeline_json = timeline.json();
      json.add("timeline_points", vms,
               static_cast<double>(timeline.points().size()), 0);
      json.add("timeline_samples", vms,
               static_cast<double>(timeline.samples_taken()), 0);
    }
    std::printf("%8u %12llu %12.1f %10llu %12llu %10.3f\n", vms,
                static_cast<unsigned long long>(r.requests), r.p99_ns / 1e3,
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.channel_sent), r.imbalance);
    json.add("sharded_requests", vms, static_cast<double>(r.requests), 0);
    json.add("sharded_dropped", vms, static_cast<double>(r.dropped), 0);
    json.add("sharded_mean_ns", vms, r.mean_ns, 0);
    json.add("sharded_p99_ns", vms, r.p99_ns, 0);
    json.add("sharded_epochs", vms, static_cast<double>(r.epochs), 0);
    json.add("sharded_channel_sent", vms, static_cast<double>(r.channel_sent),
             0);
    json.add("sharded_backpressure", vms, static_cast<double>(r.backpressure),
             0);
  }

  // Closed loop at 256 VMs: each VM's next arrival waits on its previous
  // completion, so this run pins the latency-coupled schedule the
  // open-loop sweep does not exercise.
  {
    sim::FleetConfig cfg = fleet_config(seed, smoke, 256);
    cfg.traffic.open_loop = false;
    const sim::FleetResult r = sim::run_fleet(cfg);
    std::printf("%9s %11llu %12.1f %10llu %12llu %10.3f\n", "256(clsd)",
                static_cast<unsigned long long>(r.requests), r.p99_ns / 1e3,
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.channel_sent), r.imbalance);
    json.add("closed_requests", 256, static_cast<double>(r.requests), 0);
    json.add("closed_p99_ns", 256, r.p99_ns, 0);
  }

  if (!snapshot_path.empty()) {
    std::ofstream out(snapshot_path);
    out << reg.snapshot_json() << "\n";
  }
  if (!timeline_path.empty()) {
    std::ofstream out(timeline_path);
    out << timeline_json << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace vphi::bench

int main(int argc, char** argv) { return vphi::bench::run(argc, argv); }
