// Sharded deterministic engine tests: the per-shard watermark protocol
// (sim/shard.hpp) and its Actor{name, AtNow{}} contract, the seeded
// traffic generator (sim/traffic.hpp), and run_fleet() itself — same-seed
// bit-identity, modeled channel backpressure, shutdown with events still
// in flight, and the two-shard doorbell ping-pong traced through
// sim::tracer() (same span-ordering idiom as sim_trace_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/timeseries.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"

namespace vphi::sim {
namespace {

// ---------------------------------------------------------------------------
// Shard watermarks and the AtNow contract

TEST(ShardScope, NestingRestoresOuterShard) {
  EXPECT_EQ(current_shard(), kNoShard);
  {
    ShardScope outer(2, 0);
    EXPECT_EQ(current_shard(), 2u);
    {
      ShardScope inner(7, 0);
      EXPECT_EQ(current_shard(), 7u);
    }
    EXPECT_EQ(current_shard(), 2u);
  }
  EXPECT_EQ(current_shard(), kNoShard);
}

// Regression for the new-actor rule: on a shard-bound thread,
// Actor{name, AtNow{}} must start at the shard's EXACT time, even though
// the global watermark only ever receives epoch-floor publications from
// that shard. An engine that consulted only the global watermark would
// construct mid-epoch actors in the shard's past.
TEST(ShardScope, AtNowActorNeverStartsBehindItsShard) {
  std::thread t([] {
    constexpr Nanos kEpoch = 1'000'000;  // coarse: global floor lags a lot
    ShardScope scope(5, kEpoch);
    Actor lead{"lead", Actor::AtNow{}};
    Nanos target = lead.now() + 123'456;
    if (target % kEpoch == 0) ++target;  // keep the floor strictly behind
    lead.sync_to(target);
    EXPECT_GE(shard_watermark(5), target);
    // The new actor sees the shard slot, not the stale epoch floor.
    Actor follower{"follower", Actor::AtNow{}};
    EXPECT_GE(follower.now(), target);
  });
  t.join();
}

// ---------------------------------------------------------------------------
// RNG streams and the traffic generator

TEST(RngStream, SameIdsReplaySameDraws) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c = Rng::stream(42, 8);
  Rng d = Rng::stream(43, 7);
  // Neighbouring streams and neighbouring seeds both diverge immediately.
  Rng a2 = Rng::stream(42, 7);
  EXPECT_NE(a2.next(), c.next());
  Rng a3 = Rng::stream(42, 7);
  EXPECT_NE(a3.next(), d.next());
}

TEST(TrafficStream, ScheduleIsAPureFunctionOfSeedAndVm) {
  TrafficConfig cfg;
  cfg.churn_disconnect_prob = 0.01;
  cfg.churn_down_ns = 100'000;
  TrafficStream a(99, 7, cfg);
  TrafficStream b(99, 7, cfg);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next_gap(0), b.next_gap(0));
    EXPECT_EQ(a.next_bytes(), b.next_bytes());
    EXPECT_EQ(a.next_think(), b.next_think());
    EXPECT_EQ(a.maybe_disconnect(), b.maybe_disconnect());
  }
  TrafficStream c(99, 8, cfg);
  bool diverged = false;
  TrafficStream a2(99, 7, cfg);
  for (int i = 0; i < 32 && !diverged; ++i) {
    diverged = a2.next_gap(0) != c.next_gap(0);
  }
  EXPECT_TRUE(diverged);
}

TEST(TrafficStream, UnconfiguredChurnConsumesNoDraw) {
  // Draw-order discipline: maybe_disconnect() with churn off must not
  // advance the RNG, or a schedule that skips the call for offline VMs
  // would desynchronize from one that does not.
  TrafficConfig cfg;  // churn_disconnect_prob = 0
  TrafficStream with_calls(7, 3, cfg);
  TrafficStream without(7, 3, cfg);
  EXPECT_EQ(with_calls.maybe_disconnect(), 0u);
  EXPECT_EQ(with_calls.maybe_disconnect(), 0u);
  EXPECT_EQ(with_calls.next_bytes(), without.next_bytes());
  EXPECT_EQ(with_calls.next_gap(0), without.next_gap(0));
}

TEST(TrafficStream, StormWindowIsPureAndStrided) {
  TrafficConfig cfg;
  cfg.storm_at_ns = 1'000;
  cfg.storm_len_ns = 500;
  cfg.storm_stride = 3;
  TrafficStream hit(1, 3, cfg);   // vm 3: 3 % 3 == 0, participates
  TrafficStream miss(1, 4, cfg);  // vm 4 does not
  EXPECT_FALSE(hit.in_storm(999));
  EXPECT_TRUE(hit.in_storm(1'000));
  EXPECT_TRUE(hit.in_storm(1'499));
  EXPECT_FALSE(hit.in_storm(1'500));  // half-open window
  EXPECT_FALSE(miss.in_storm(1'200));
}

TEST(TrafficStream, RateCurveAppliesRampAndBurst) {
  TrafficConfig cfg;
  cfg.rate_hz = 1'000.0;
  cfg.rate_slope_per_s = 1'000.0;
  cfg.burst_factor = 2.0;
  cfg.burst_period_ns = 1'000'000;
  cfg.burst_len_ns = 100'000;
  TrafficStream s(1, 0, cfg);
  // Inside the burst prefix at t=0: ramped base x burst factor.
  EXPECT_DOUBLE_EQ(s.rate_at(0), 2'000.0);
  // Mid-period, outside the burst, half a ms into the ramp.
  EXPECT_NEAR(s.rate_at(500'000), 1'000.5, 1e-6);
  // One full second in: base + slope, inside the next burst prefix.
  EXPECT_NEAR(s.rate_at(kSecond), 4'000.0, 1e-6);
}

// A stream keeps a pointer to its config: binding a temporary must not
// compile.
static_assert(std::is_constructible_v<TrafficStream, std::uint64_t,
                                      std::uint32_t, const TrafficConfig&>);
static_assert(!std::is_constructible_v<TrafficStream, std::uint64_t,
                                       std::uint32_t, TrafficConfig&&>);

// ---------------------------------------------------------------------------
// The engine: determinism, backpressure, scale

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.vms = 16;
  cfg.shards = 4;
  cfg.cards = 3;  // 3 % 4 != 0 => cross-shard doorbells exist
  cfg.duration_ns = 400'000;
  cfg.traffic.rate_hz = 40'000.0;
  cfg.traffic.burst_factor = 2.0;
  cfg.traffic.burst_period_ns = 100'000;
  cfg.traffic.burst_len_ns = 20'000;
  cfg.traffic.churn_disconnect_prob = 0.01;
  cfg.traffic.churn_down_ns = 50'000;
  cfg.traffic.storm_at_ns = 200'000;
  cfg.traffic.storm_len_ns = 100'000;
  cfg.traffic.storm_stride = 5;
  return cfg;
}

TEST(FleetEngine, SameSeedIsBitIdenticalIncludingSnapshots) {
  auto& reg = metrics::registry();
  const FleetConfig cfg = small_fleet();

  reg.reset();
  const FleetResult r1 = run_fleet(cfg);
  const std::string snap1 = reg.snapshot_json();
  reg.reset();
  const FleetResult r2 = run_fleet(cfg);
  const std::string snap2 = reg.snapshot_json();
  reg.reset();

  EXPECT_GT(r1.requests, 0u);
  EXPECT_EQ(r1.requests, r2.requests);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.dropped, r2.dropped);
  EXPECT_EQ(r1.bytes, r2.bytes);
  EXPECT_EQ(r1.epochs, r2.epochs);
  EXPECT_EQ(r1.channel_sent, r2.channel_sent);
  EXPECT_EQ(r1.backpressure, r2.backpressure);
  EXPECT_EQ(r1.sim_end_ns, r2.sim_end_ns);
  EXPECT_EQ(r1.mean_ns, r2.mean_ns);  // bit-equal doubles, not approx
  EXPECT_EQ(r1.p99_ns, r2.p99_ns);
  EXPECT_EQ(r1.per_shard_requests, r2.per_shard_requests);
  EXPECT_EQ(snap1, snap2);
}

TEST(FleetEngine, DifferentSeedsDiverge) {
  FleetConfig cfg = small_fleet();
  const FleetResult r1 = run_fleet(cfg);
  cfg.seed = cfg.seed + 1;
  const FleetResult r2 = run_fleet(cfg);
  EXPECT_NE(r1.requests, r2.requests);
  metrics::registry().reset();
}

TEST(FleetEngine, LabeledShardSumsEqualAggregates) {
  auto& reg = metrics::registry();
  reg.reset();
  const FleetConfig cfg = small_fleet();
  const FleetResult r = run_fleet(cfg);

  const auto per_shard = reg.counter_by_label("vphi.sim.fleet.requests");
  EXPECT_EQ(per_shard.size(), cfg.shards);
  std::uint64_t labeled_sum = 0;
  for (const auto& [label, v] : per_shard) labeled_sum += v;
  EXPECT_EQ(labeled_sum, reg.counter_value("vphi.sim.fleet.requests"));
  EXPECT_EQ(labeled_sum, r.requests);
  EXPECT_EQ(reg.counter_value("vphi.sim.fleet.bytes"), r.bytes);
  EXPECT_EQ(reg.counter_value("vphi.sim.channel.sent"), r.channel_sent);

  // Histogram shard stripes fold the same way: per-label counts sum to the
  // aggregate count, which is one record per completed request.
  const auto hists = reg.histogram_by_label("vphi.sim.fleet.request_latency_ns");
  std::uint64_t hist_sum = 0;
  for (const auto& [label, h] : hists) hist_sum += h.count();
  EXPECT_EQ(hist_sum, r.completed);
  EXPECT_EQ(reg.histogram_value("vphi.sim.fleet.request_latency_ns").count(),
            r.completed);
  reg.reset();
}

/// `snap` with the value of every counter key (aggregate or labeled)
/// named `name` blanked to '#'.
std::string blank_counter(const std::string& snap, const std::string& name) {
  const std::string key = '"' + name;
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = snap.find(key); at != std::string::npos;
       at = snap.find(key, at + 1)) {
    const std::size_t value = snap.find("\":", at) + 2;
    out.append(snap, from, value - from).append("#");
    from = value;
    while (from < snap.size() && snap[from] >= '0' && snap[from] <= '9') {
      ++from;
    }
  }
  return out.append(snap, from);
}

TEST(FleetEngine, TinyChannelCapacityBackpressuresButLosesNothing) {
  auto& reg = metrics::registry();
  reg.reset();
  FleetConfig cfg = small_fleet();
  const FleetResult wide = run_fleet(cfg);
  const std::string snap_wide = reg.snapshot_json();
  reg.reset();
  cfg.channel_capacity = 2;  // most epochs send more than 2 down a lane
  const FleetResult r = run_fleet(cfg);
  const std::string snap = reg.snapshot_json();
  reg.reset();
  EXPECT_GT(r.channel_sent, 0u);
  EXPECT_GT(r.backpressure, 0u);
  EXPECT_EQ(wide.backpressure, 0u);
  // Backpressure is modeled: it slows nothing down in sim time and drops
  // nothing, so every other field matches the default-capacity run.
  EXPECT_EQ(r.completed, r.requests);
  EXPECT_EQ(r.requests, wide.requests);
  EXPECT_EQ(r.completed, wide.completed);
  EXPECT_EQ(r.dropped, wide.dropped);
  EXPECT_EQ(r.rejected, wide.rejected);
  EXPECT_EQ(r.throttled, wide.throttled);
  EXPECT_EQ(r.bytes, wide.bytes);
  EXPECT_EQ(r.epochs, wide.epochs);
  EXPECT_EQ(r.channel_sent, wide.channel_sent);
  EXPECT_EQ(r.sim_end_ns, wide.sim_end_ns);
  EXPECT_EQ(r.mean_ns, wide.mean_ns);
  EXPECT_EQ(r.p50_ns, wide.p50_ns);
  EXPECT_EQ(r.p99_ns, wide.p99_ns);
  EXPECT_EQ(r.imbalance, wide.imbalance);
  EXPECT_EQ(r.per_shard_requests, wide.per_shard_requests);
  // The snapshots differ, and only in the backpressure counter.
  EXPECT_NE(snap, snap_wide);
  EXPECT_EQ(blank_counter(snap, "vphi.sim.channel.backpressure"),
            blank_counter(snap_wide, "vphi.sim.channel.backpressure"));
}

TEST(FleetEngine, ThousandVmFleetRunsToQuiescence) {
  FleetConfig cfg;
  cfg.vms = 1'000;
  cfg.shards = 8;
  cfg.cards = 49;  // 49 % 8 != 0
  cfg.duration_ns = 100'000;
  cfg.traffic.rate_hz = 20'000.0;
  const FleetResult r = run_fleet(cfg);
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.completed, r.requests);
  ASSERT_EQ(r.per_shard_requests.size(), 8u);
  const std::uint64_t per_shard_sum =
      std::accumulate(r.per_shard_requests.begin(), r.per_shard_requests.end(),
                      std::uint64_t{0});
  EXPECT_EQ(per_shard_sum, r.requests);
  metrics::registry().reset();
}

// ---------------------------------------------------------------------------
// Two-shard doorbell ping-pong, traced (sim_trace_test.cpp idiom)

using EventMap = std::map<SpanEvent, Nanos>;

EventMap event_map(const RequestTrace& req) {
  EventMap m;
  for (const auto& ev : req.events) {
    if (m.find(ev.event) == m.end()) m[ev.event] = ev.ts;
  }
  return m;
}

TEST(FleetEngine, TwoShardPingPongTracesCausalSpans) {
  // vms=2, shards=2, cards=1: vm 1 lives on shard 1 but its card lives on
  // shard 0, so every one of its requests is doorbell ping-pong — a
  // cross-shard kick out, a cross-shard completion back.
  tracer().set_enabled(true);
  tracer().clear();
  FleetConfig cfg;
  cfg.vms = 2;
  cfg.shards = 2;
  cfg.cards = 1;
  cfg.duration_ns = 300'000;
  cfg.traffic.rate_hz = 30'000.0;
  cfg.trace_requests = true;
  const FleetResult r = run_fleet(cfg);
  EXPECT_GT(r.channel_sent, 0u);  // the ping-pong actually crossed shards

  const auto requests = tracer().requests();
  tracer().clear();
  tracer().set_enabled(false);
  metrics::registry().reset();

  std::size_t fleet_requests = 0;
  for (const auto& req : requests) {
    if (req.op != "fleet") continue;
    ++fleet_requests;
    const EventMap m = event_map(req);
    // The full hop chain is present for every completed request...
    ASSERT_TRUE(m.count(SpanEvent::kSubmit));
    ASSERT_TRUE(m.count(SpanEvent::kKick));
    ASSERT_TRUE(m.count(SpanEvent::kBackendPop));
    ASSERT_TRUE(m.count(SpanEvent::kUsedPublish));
    ASSERT_TRUE(m.count(SpanEvent::kComplete));
    // ...and causally ordered even when hops alternate between shards.
    EXPECT_LE(m.at(SpanEvent::kSubmit), m.at(SpanEvent::kKick));
    EXPECT_LE(m.at(SpanEvent::kKick), m.at(SpanEvent::kBackendPop));
    EXPECT_LE(m.at(SpanEvent::kBackendPop), m.at(SpanEvent::kUsedPublish));
    EXPECT_LE(m.at(SpanEvent::kUsedPublish), m.at(SpanEvent::kComplete));
  }
  EXPECT_EQ(fleet_requests, r.completed);
}

// Hook calls split by whether they ran on the thread that called
// run_fleet. A concurrent run gives each shard its own CallSplit.
struct CallSplit {
  std::uint64_t on_caller = 0;
  std::uint64_t elsewhere = 0;
  void add(std::thread::id caller) {
    ++(std::this_thread::get_id() == caller ? on_caller : elsewhere);
  }
};

TEST(FleetEngine, CallerRunsShardZeroAndOnlyShardZero) {
  FleetConfig cfg = small_fleet();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<CallSplit> admits(cfg.shards);
  cfg.hooks.admit = [&](std::uint32_t vm, std::uint32_t, Nanos) {
    admits[vm % cfg.shards].add(caller);
    return AdmitDecision{};
  };
  const FleetResult r = run_fleet(cfg);
  metrics::registry().reset();
  EXPECT_GT(r.requests, 0u);
  EXPECT_GT(admits[0].on_caller, 0u);
  EXPECT_EQ(admits[0].elsewhere, 0u);
  for (std::uint32_t s = 1; s < cfg.shards; ++s) {
    EXPECT_EQ(admits[s].on_caller, 0u) << "shard " << s;
    EXPECT_GT(admits[s].elsewhere, 0u) << "shard " << s;
  }
}

TEST(FleetEngine, SingleShardRunMakesEveryHookCallOnTheCaller) {
  FleetConfig cfg = small_fleet();
  cfg.shards = 1;
  const std::thread::id caller = std::this_thread::get_id();
  CallSplit admit, complete, epoch;
  cfg.hooks.admit = [&](std::uint32_t, std::uint32_t, Nanos) {
    admit.add(caller);
    return AdmitDecision{};
  };
  cfg.hooks.on_complete = [&](std::uint32_t, std::uint32_t, Nanos, Nanos,
                              Nanos, TraceId) { complete.add(caller); };
  cfg.hooks.on_epoch = [&](Nanos) { epoch.add(caller); };
  const FleetResult r = run_fleet(cfg);
  metrics::registry().reset();
  EXPECT_EQ(admit.on_caller, r.requests);
  EXPECT_EQ(complete.on_caller, r.completed);
  EXPECT_EQ(epoch.on_caller, r.epochs);
  EXPECT_EQ(admit.elsewhere + complete.elsewhere + epoch.elsewhere, 0u);
}

TEST(FleetEngine, TracedRunIgnoresTheCallersOpSpan) {
  // Shard 0 runs on the caller's thread, which here sits inside an op
  // span. Fleet requests must still be roots, and the caller's span must
  // be current again once the run returns.
  tracer().set_enabled(true);
  tracer().clear();
  FleetConfig cfg = small_fleet();
  cfg.trace_requests = true;
  TraceId op = 0;
  TraceId after = 0;
  FleetResult r;
  {
    TraceOpScope scope("caller");
    op = scope.id();
    r = run_fleet(cfg);
    after = tracer().begin_request("after", 0);
  }
  const auto requests = tracer().requests();
  tracer().clear();
  tracer().set_enabled(false);
  metrics::registry().reset();

  ASSERT_NE(op, 0u);
  std::uint64_t fleet_requests = 0;
  for (const auto& req : requests) {
    if (req.op == "after") {
      EXPECT_EQ(req.id, after);
      EXPECT_EQ(req.parent, op);
      continue;
    }
    ASSERT_EQ(req.op, "fleet");
    ++fleet_requests;
    EXPECT_EQ(req.parent, 0u) << "fleet request " << req.id;
  }
  EXPECT_EQ(fleet_requests, r.requests);
}

// ---------------------------------------------------------------------------
// Fleet timeline: deterministic virtual-time metric series (sim/timeseries)

FleetConfig timeline_fleet() {
  FleetConfig cfg;
  cfg.vms = 256;
  cfg.shards = 8;
  cfg.cards = 19;  // 19 % 8 != 0 => cross-shard doorbells exist
  cfg.duration_ns = 2 * kMillisecond;
  cfg.traffic.rate_hz = 10'000.0;
  cfg.traffic.burst_factor = 2.0;
  cfg.traffic.burst_period_ns = 400'000;
  cfg.traffic.burst_len_ns = 100'000;
  return cfg;
}

TEST(FleetTimeline, SameSeed256VmTimelineIsBitIdentical) {
  auto& reg = metrics::registry();
  FleetConfig cfg = timeline_fleet();
  const Nanos cadence = cfg.duration_ns / 64;

  reg.reset();
  Timeline t1{TimelineConfig{cadence}};
  cfg.timeline = &t1;
  run_fleet(cfg);
  reg.reset();
  Timeline t2{TimelineConfig{cadence}};
  cfg.timeline = &t2;
  run_fleet(cfg);
  reg.reset();

  EXPECT_GT(t1.samples_taken(), 0u);
  EXPECT_GT(t1.points().size(), 0u);
  // Byte-identical JSON, not merely equivalent point sets: the timeline is
  // part of the engine's same-seed bit-identity contract.
  EXPECT_EQ(t1.json(), t2.json());

  // The stream is strictly ordered by its key, (ts, series).
  const auto& pts = t1.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const auto& a = pts[i - 1];
    const auto& b = pts[i];
    const bool ordered =
        a.ts < b.ts || (a.ts == b.ts && a.series < b.series);
    ASSERT_TRUE(ordered) << "point " << i << " out of order";
  }

  // A different seed produces a different timeline (the sampler really is
  // reading run state, not emitting a fixed pattern).
  reg.reset();
  Timeline t3{TimelineConfig{cadence}};
  cfg.seed = cfg.seed + 1;
  cfg.timeline = &t3;
  run_fleet(cfg);
  reg.reset();
  EXPECT_NE(t1.json(), t3.json());
}

TEST(FleetTimeline, SamplingIsAPureObserver) {
  auto& reg = metrics::registry();
  FleetConfig cfg = timeline_fleet();

  reg.reset();
  const FleetResult off = run_fleet(cfg);
  const std::string snap_off = reg.snapshot_json();

  reg.reset();
  Timeline timeline{TimelineConfig{cfg.duration_ns / 64}};
  cfg.timeline = &timeline;
  const FleetResult on = run_fleet(cfg);
  const std::string snap_on = reg.snapshot_json();
  reg.reset();

  EXPECT_GT(timeline.points().size(), 0u);
  EXPECT_EQ(off.requests, on.requests);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.dropped, on.dropped);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.epochs, on.epochs);
  EXPECT_EQ(off.channel_sent, on.channel_sent);
  EXPECT_EQ(off.backpressure, on.backpressure);
  EXPECT_EQ(off.sim_end_ns, on.sim_end_ns);
  EXPECT_EQ(off.mean_ns, on.mean_ns);  // bit-equal doubles, not approx
  EXPECT_EQ(off.p99_ns, on.p99_ns);
  EXPECT_EQ(snap_off, snap_on);
}

TEST(FleetTimeline, EnvOverridesCadenceAndZeroDisables) {
  ::setenv("VPHI_TIMELINE", "500", 1);
  EXPECT_EQ(TimelineConfig::from_env(1'000).cadence_ns, 500u);
  ::setenv("VPHI_TIMELINE", "0", 1);
  const TimelineConfig disabled_cfg = TimelineConfig::from_env(1'000);
  ::unsetenv("VPHI_TIMELINE");
  EXPECT_EQ(disabled_cfg.cadence_ns, 0u);
  EXPECT_EQ(TimelineConfig::from_env(1'000).cadence_ns, 1'000u);

  // A disabled timeline attached to a fleet collects nothing and the run
  // completes normally.
  auto& reg = metrics::registry();
  reg.reset();
  Timeline disabled{disabled_cfg};
  EXPECT_FALSE(disabled.enabled());
  FleetConfig cfg = small_fleet();
  cfg.timeline = &disabled;
  const FleetResult r = run_fleet(cfg);
  reg.reset();
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(disabled.samples_taken(), 0u);
  EXPECT_EQ(disabled.points().size(), 0u);
}

TEST(FleetTimeline, EngineProfilePublishesPhaseTimers) {
  ::setenv("VPHI_ENGINE_PROFILE", "1", 1);
  auto& reg = metrics::registry();
  reg.reset();
  run_fleet(small_fleet());
  const std::string snap = reg.snapshot_json();
  ::unsetenv("VPHI_ENGINE_PROFILE");
  reg.reset();
  EXPECT_NE(snap.find("vphi.engine.events_ns"), std::string::npos);
  EXPECT_NE(snap.find("vphi.engine.drain_ns"), std::string::npos);
  EXPECT_NE(snap.find("vphi.engine.barrier_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Request tracing at fleet scale

TEST(FleetTimeline, ThousandVmTraceKeepsOneWholeChainPerCompletion) {
  FleetConfig cfg;
  cfg.vms = 1'000;
  cfg.shards = 8;
  cfg.cards = 49;
  cfg.duration_ns = 100'000;
  cfg.traffic.rate_hz = 20'000.0;
  cfg.trace_requests = true;

  auto& reg = metrics::registry();
  tracer().set_enabled(true);
  tracer().clear();
  reg.reset();
  const FleetResult r = run_fleet(cfg);
  const auto reqs = tracer().requests();
  tracer().clear();
  tracer().set_enabled(false);
  reg.reset();

  // Every completed fleet request left one chain, complete end to end.
  std::uint64_t chains = 0;
  for (const auto& req : reqs) {
    if (req.op != "fleet") continue;
    const EventMap m = event_map(req);
    ASSERT_TRUE(m.count(SpanEvent::kSubmit));
    ASSERT_TRUE(m.count(SpanEvent::kComplete));
    ++chains;
  }
  EXPECT_EQ(chains, r.completed);
  EXPECT_GT(chains, 200u);
}

// ---------------------------------------------------------------------------
// Lock-free histogram stripes stay exact under concurrency

TEST(LatencyHistogram, ConcurrentRecordsFoldExactly) {
  metrics::LatencyHistogram h("vphi.test.striped_hist");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<Nanos>(i % 1'000 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const Histogram snap = h.snapshot();
  const std::uint64_t expected_count = kThreads * kPerThread;
  EXPECT_EQ(snap.count(), expected_count);
  // Sum survives the stripe fold exactly: mean * count == integer sum.
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) expected_sum += i % 1'000 + 1;
  expected_sum *= kThreads;
  EXPECT_DOUBLE_EQ(snap.mean() * static_cast<double>(expected_count),
                   static_cast<double>(expected_sum));
  EXPECT_EQ(snap.min(), 1.0);
  EXPECT_EQ(snap.max(), 1'000.0);
  metrics::registry().reset();
}

}  // namespace
}  // namespace vphi::sim
