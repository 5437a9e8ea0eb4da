// Race-detection workloads: every test here is also compiled into the
// vphi_race_tsan_test binary (-fsanitize=thread), where the point is not
// the assertions but the interleavings — concurrent submit/wait through a
// worker-mode backend, metric registration racing registry snapshots,
// flight-recorder writes under a fault storm, and focused regressions for
// races the thread-safety annotation pass surfaced (the frontend's probed
// flag, endpoint teardown racing a blocked peer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hv/vm.hpp"
#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "tools/testbed.hpp"
#include "virtio/ring.hpp"
#include "vphi/frontend.hpp"

namespace vphi::core {
namespace {

using scif::PortId;
using scif::SCIF_ACCEPT_SYNC;
using scif::SCIF_RECV_BLOCK;
using scif::SCIF_SEND_BLOCK;
using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

// Echo servers on card ports base..base+n-1, one per guest thread.
std::vector<std::future<void>> start_echoes(Testbed& bed, int n, int base) {
  auto& card = bed.card_provider();
  std::vector<std::future<void>> echoes;
  for (int t = 0; t < n; ++t) {
    auto lep = card.open();
    EXPECT_TRUE(lep);
    EXPECT_TRUE(card.bind(*lep, static_cast<scif::Port>(base + t)));
    EXPECT_TRUE(sim::ok(card.listen(*lep, 2)));
    echoes.push_back(std::async(std::launch::async, [&card, lep = *lep] {
      sim::Actor a{"echo", sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
      if (!acc) return;
      std::uint8_t frame[64];
      while (card.recv(acc->epd, frame, sizeof(frame), SCIF_RECV_BLOCK)) {
        if (!card.send(acc->epd, frame, sizeof(frame), SCIF_SEND_BLOCK)) {
          break;
        }
      }
    }));
  }
  return echoes;
}

TEST(VphiRace, ConcurrentSubmitWaitWorkerBackend) {
  // All guest threads share one VM's ring with the all-worker backend:
  // submit_once/wait_once, drain_used and the worker queues all run
  // concurrently. Correctness bar: every echo returns intact; TSan bar:
  // no report.
  TestbedConfig config;
  config.backend_policy.classify = BackendPolicy::all_worker();
  Testbed bed{config};

  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  auto echoes = start_echoes(bed, kThreads, 7'200);

  std::atomic<int> failures{0};
  std::vector<std::thread> guests;
  for (int t = 0; t < kThreads; ++t) {
    guests.emplace_back([&bed, &failures, t] {
      sim::Actor a{"guest" + std::to_string(t), sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      auto& guest = bed.vm(0).guest_scif();
      auto epd = guest.open();
      if (!epd ||
          !sim::ok(guest.connect(
              *epd,
              PortId{bed.card_node(), static_cast<scif::Port>(7'200 + t)}))) {
        ++failures;
        return;
      }
      sim::Rng rng{static_cast<std::uint64_t>(t) + 1};
      std::uint8_t out[64], in[64];
      for (int round = 0; round < kRounds; ++round) {
        rng.fill(out, sizeof(out));
        if (!guest.send(*epd, out, sizeof(out), SCIF_SEND_BLOCK) ||
            !guest.recv(*epd, in, sizeof(in), SCIF_RECV_BLOCK) ||
            std::memcmp(out, in, sizeof(out)) != 0) {
          ++failures;
          return;
        }
      }
      guest.close(*epd);
    });
  }
  for (auto& g : guests) g.join();
  for (auto& e : echoes) e.get();
  EXPECT_EQ(failures.load(), 0);
}

TEST(VphiRace, ConcurrentMetricChurnAndSnapshot) {
  // Labeled instruments register and deregister (construction/destruction
  // takes the registry lock) while other threads walk the registry for
  // snapshots. The original bug class: snapshot iterating a map that a
  // registering counter rehashes under it.
  constexpr int kChurnThreads = 3;
  constexpr int kSnapshotThreads = 2;
  constexpr int kIters = 200;

  std::vector<std::thread> workers;
  for (int t = 0; t < kChurnThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        sim::metrics::Counter c{"vphi.test.race.churn",
                                "vm" + std::to_string(t)};
        c.inc(1 + static_cast<std::uint64_t>(i));
        sim::metrics::Gauge g{"vphi.test.race.gauge",
                              "vm" + std::to_string(t)};
        g.set(static_cast<std::int64_t>(i));
        sim::metrics::LatencyHistogram h{"vphi.test.race.lat",
                                         "vm" + std::to_string(t)};
        h.record(1'000);
      }
    });
  }
  std::atomic<bool> stop{false};
  for (int t = 0; t < kSnapshotThreads; ++t) {
    workers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string json = sim::metrics::registry().snapshot_json();
        EXPECT_FALSE(json.empty());
        const auto names = sim::metrics::registry().metric_names();
        EXPECT_FALSE(names.empty());
      }
    });
  }
  for (int t = 0; t < kChurnThreads; ++t) workers[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = kChurnThreads; t < workers.size(); ++t) workers[t].join();
}

TEST(VphiRace, SnapshotJsonUnderConcurrentMutation) {
  // Live counters mutate while snapshot_json serializes them: the snapshot
  // must always be well-formed JSON-ish text (balanced braces, our metric
  // visible), never torn. json_escaped itself is hammered from all threads
  // with the characters that need escaping.
  sim::metrics::Counter hot{"vphi.test.race.hot"};
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) hot.inc();
  });
  // Snapshots below must overlap live increments, so hold until the
  // mutator thread is actually scheduled and incrementing.
  while (hot.value() == 0) std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    const std::string json = sim::metrics::registry().snapshot_json();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("vphi.test.race.hot"), std::string::npos);
    // Escaping is pure but the TSan build checks it is also re-entrant.
    EXPECT_EQ(sim::json_escaped("a\"b\\c\nd\te\x01"),
              "a\\\"b\\\\c\\nd\\te\\u0001");
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  EXPECT_GT(sim::metrics::registry().counter_value("vphi.test.race.hot"), 0u);
}

TEST(VphiRace, FlightRecorderUnderFaultStorm) {
  // Traced traffic feeds the recorder's ring from guest, backend and IRQ
  // threads while injected faults fire dump() (snapshot + render) and two
  // observer threads concurrently dump and read last_dump() and the
  // registry's dump count.
  sim::tracer().set_enabled(true);
  sim::flight_recorder().clear();
  auto& reg = sim::metrics::registry();
  const std::uint64_t dumps_before = reg.counter_value("vphi.recorder.dumps");

  TestbedConfig config;
  config.backend_policy.classify = BackendPolicy::all_worker();
  Testbed bed{config};

  constexpr int kThreads = 3;
  constexpr int kRounds = 20;
  auto echoes = start_echoes(bed, kThreads, 7'300);

  // Connect every guest before arming anything: a faulted connect would
  // strand its echo server in accept() and the test in e.get(). The armed
  // sites below lie about completions but never swallow a request, so
  // every op still executes host-side and close() always unblocks peers.
  auto& guest = bed.vm(0).guest_scif();
  std::vector<int> epds(kThreads, -1);
  {
    sim::Actor a{"storm-setup", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    for (int t = 0; t < kThreads; ++t) {
      auto epd = guest.open();
      ASSERT_TRUE(epd);
      ASSERT_TRUE(sim::ok(guest.connect(
          *epd, PortId{bed.card_node(), static_cast<scif::Port>(7'300 + t)})));
      epds[static_cast<std::size_t>(t)] = *epd;
    }
  }

  sim::fault_injector().seed(7);
  sim::fault_injector().arm_probability(sim::FaultSite::kShortUsedWrite, 0.05);
  sim::fault_injector().arm_probability(
      sim::FaultSite::kCorruptResponseStatus, 0.05);

  std::atomic<bool> stop{false};
  std::vector<std::thread> observers;
  for (int t = 0; t < 2; ++t) {
    observers.emplace_back([&stop, &reg] {
      while (!stop.load(std::memory_order_relaxed)) {
        sim::flight_recorder().dump("race-storm-observer");
        const sim::FlightDump last = sim::flight_recorder().last_dump();
        EXPECT_FALSE(last.reason.empty());
        (void)reg.counter_value("vphi.recorder.dumps");
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> guests;
  for (int t = 0; t < kThreads; ++t) {
    guests.emplace_back([&guest, &epds, t] {
      sim::Actor a{"storm" + std::to_string(t), sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      const int epd = epds[static_cast<std::size_t>(t)];
      std::uint8_t out[64], in[64];
      std::memset(out, 0x5a, sizeof(out));
      for (int round = 0; round < kRounds; ++round) {
        // Faults make failures legal here; stop on the first one rather
        // than desynchronizing from the fixed-frame echo peer.
        if (!guest.send(epd, out, sizeof(out), SCIF_SEND_BLOCK)) break;
        if (!guest.recv(epd, in, sizeof(in), SCIF_RECV_BLOCK)) break;
      }
      guest.close(epd);
    });
  }
  for (auto& g : guests) g.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& o : observers) o.join();
  sim::fault_injector().disarm_all();
  for (auto& e : echoes) e.get();
  sim::tracer().set_enabled(false);
  sim::tracer().clear();
  EXPECT_GT(reg.counter_value("vphi.recorder.dumps"), dumps_before);
}

TEST(VphiRace, ProbedFlagConcurrentReadersDuringProbe) {
  // Regression: FrontendDriver::probed_ was a plain bool written by
  // probe() and read by every submit/wait thread — a data race under TSan.
  // It is atomic now; readers racing the probe see a clean before/after.
  hv::Vm vm{{.name = "race-probe"}, sim::CostModel::paper()};
  FrontendDriver frontend{vm};

  // Submission on the unprobed driver must already be a clean kNoDevice
  // rejection (not UB on a half-written flag) — single-threaded here; the
  // multi-threaded interleaving below is what TSan checks.
  {
    sim::Actor a{"early"};
    FrontendDriver::TransactArgs args;
    args.header.op = Op::kGetNodeIds;
    EXPECT_EQ(frontend.transact(a, args).status(), Status::kNoDevice);
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Hammer the flag across the probe; every reader exits only once the
      // release-store is visible to it.
      while (!frontend.probed()) std::this_thread::yield();
    });
  }
  go.store(true, std::memory_order_release);
  EXPECT_EQ(frontend.probe(), Status::kOk);
  for (auto& r : readers) r.join();
  EXPECT_TRUE(frontend.probed());
}

TEST(VphiRace, PeerCloseRacesBlockedRecv) {
  // Regression: Endpoint::close() read peer bookkeeping (peer id, last
  // event timestamp) without the endpoint lock while the peer's recv path
  // updated it. A card-side close racing a guest blocked in recv must
  // resolve to an error status on the guest side, never a torn read.
  Testbed bed{TestbedConfig{}};
  auto& card = bed.card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, 7'400));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));

  auto acceptor = std::async(std::launch::async, [&] {
    sim::Actor a{"acceptor", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    return card.accept(*lep, SCIF_ACCEPT_SYNC);
  });

  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), 7'400})));
  auto acc = acceptor.get();
  ASSERT_TRUE(acc);

  std::promise<Status> recv_status;
  std::thread blocked([&] {
    sim::Actor a{"blocked", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    std::uint8_t b;
    recv_status.set_value(
        guest.recv(*epd, &b, 1, SCIF_RECV_BLOCK).status());
  });
  // Close the card side while the guest recv is in flight (or arriving).
  {
    sim::Actor a{"closer", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    card.close(acc->epd);
  }
  const Status status = recv_status.get_future().get();
  blocked.join();
  EXPECT_TRUE(status == Status::kConnectionReset ||
              status == Status::kShutDown || status == Status::kOk)
      << "got " << std::string(sim::to_string(status));
  guest.close(*epd);
}

// The sharded fleet engine's determinism claim has to hold under TSan's
// scheduler distortion too: 4 shard threads exchanging doorbells and
// completions through the epoch-parity outboxes, with churn, bursts, and a
// storm all enabled, must produce the same metrics snapshot bit-for-bit on
// a re-run — and TSan must see no race in the outboxes, the epoch barrier,
// or the striped histogram cells while they do it.
TEST(VphiRace, FleetSnapshotBitIdenticalSameSeed) {
  sim::FleetConfig cfg;
  cfg.vms = 16;
  cfg.shards = 4;
  cfg.cards = 3;  // not a multiple of the shard count: cross-shard traffic
  cfg.duration_ns = 300'000;
  cfg.channel_capacity = 4;  // small lanes: the backpressure count too
  cfg.traffic.rate_hz = 40'000.0;
  cfg.traffic.burst_factor = 2.0;
  cfg.traffic.burst_period_ns = 100'000;
  cfg.traffic.burst_len_ns = 20'000;
  cfg.traffic.churn_disconnect_prob = 0.01;
  cfg.traffic.churn_down_ns = 50'000;
  cfg.traffic.storm_at_ns = 150'000;
  cfg.traffic.storm_len_ns = 80'000;
  cfg.traffic.storm_stride = 5;

  auto& reg = sim::metrics::registry();
  reg.reset();
  const sim::FleetResult r1 = sim::run_fleet(cfg);
  const std::string snap1 = reg.snapshot_json();
  reg.reset();
  const sim::FleetResult r2 = sim::run_fleet(cfg);
  const std::string snap2 = reg.snapshot_json();
  reg.reset();

  EXPECT_GT(r1.requests, 0u);
  EXPECT_GT(r1.channel_sent, 0u);
  EXPECT_EQ(r1.requests, r2.requests);
  EXPECT_EQ(r1.sim_end_ns, r2.sim_end_ns);
  EXPECT_EQ(snap1, snap2);
}

// The virtqueue's doorbell state (pending count, latest doorbell time,
// shutdown flag, all under the ring lock) under two free-running driver
// threads and one device thread: every chain is popped exactly once, and
// shutdown releases the device only after the doorbells already delivered.
TEST(VphiRace, VirtqueueTwoDriversOneDevice) {
  constexpr std::uint32_t kPerDriver = 1'000;
  std::vector<std::uint8_t> mem(2 * kPerDriver);
  virtio::Virtqueue vq(32, [&mem](std::uint64_t gpa, std::uint32_t len) {
    return gpa + len <= mem.size() ? static_cast<void*>(mem.data() + gpa)
                                   : nullptr;
  });
  vq.set_event_idx(true);
  std::atomic<std::uint32_t> reaped{0};

  std::vector<std::uint32_t> popped(2 * kPerDriver, 0);  // device-owned
  std::thread device([&] {
    for (;;) {
      const std::vector<virtio::Chain> batch = vq.pop_avail_batch();
      if (batch.empty()) return;  // shut down
      for (const virtio::Chain& chain : batch) {
        // Complete even a malformed chain, so no driver waits on it.
        EXPECT_TRUE(sim::ok(vq.push_used(chain.head, 0, chain.kick_ts)));
        if (chain.segments.size() != 1 || chain.segments[0].ptr == nullptr) {
          ADD_FAILURE() << "chain " << chain.head << " misresolved";
          continue;
        }
        const auto* p = static_cast<const std::uint8_t*>(chain.segments[0].ptr);
        ++popped[static_cast<std::size_t>(p - mem.data())];
      }
    }
  });
  auto driver = [&](std::uint32_t first) {
    for (std::uint32_t i = first; i < first + kPerDriver;) {
      const virtio::BufferRef ref{i, 1};
      if (!vq.add_buf(std::span(&ref, 1), {}, i).has_value()) {
        // Ring full: reclaim completed chains (either driver's) first.
        if (vq.get_used()) {
          reaped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
        continue;
      }
      if (vq.kick_prepare() == virtio::Doorbell::kRing) vq.kick(i + 1);
      ++i;
    }
  };
  std::thread a(driver, 0);
  std::thread b(driver, kPerDriver);
  a.join();
  b.join();
  vq.shutdown();
  device.join();
  while (vq.get_used()) reaped.fetch_add(1);

  for (std::uint32_t id = 0; id < popped.size(); ++id) {
    EXPECT_EQ(popped[id], 1u) << "chain " << id;
  }
  EXPECT_EQ(reaped.load(), 2 * kPerDriver);
  EXPECT_EQ(vq.free_descriptors(), vq.size());
}

}  // namespace
}  // namespace vphi::core
