// Observability-layer tests: JSON escaping of hostile instrument names, the
// flight recorder's fault dumps, per-VM attribution determinism, and the
// stall watchdog's fire-exactly-once contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metric_reads.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/log.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "sim/trace.hpp"
#include "tools/testbed.hpp"

namespace vphi::core {
namespace {

using scif::PortId;
using scif::SCIF_ACCEPT_SYNC;
using scif::SCIF_RECV_BLOCK;
using scif::SCIF_SEND_BLOCK;
using tools::Testbed;
using tools::TestbedConfig;

// ---------------------------------------------------------------------------
// JSON escaping: both emitters (metrics snapshot, trace export) route every
// caller-supplied name through sim::append_json_escaped. A hostile
// instrument name must come out of snapshot_json() escaped, never raw.

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(sim::json_escaped("plain.name"), "plain.name");
  EXPECT_EQ(sim::json_escaped("he\"llo"), "he\\\"llo");
  EXPECT_EQ(sim::json_escaped("back\\slash"), "back\\\\slash");
  EXPECT_EQ(sim::json_escaped("line\nbreak\ttab"), "line\\nbreak\\ttab");
  // Split literal: "\x01b" would otherwise parse as one hex escape (0x1B).
  EXPECT_EQ(sim::json_escaped(std::string("nul\x01") + "byte"),
            "nul\\u0001byte");
}

TEST(JsonEscape, HostileMetricNameSurvivesSnapshot) {
  {
    sim::metrics::Counter evil{"evil\"name\\with\ncontrol",
                               "vm=\"vm\\0\""};
    evil.inc(7);
    const std::string json = sim::metrics::registry().snapshot_json();
    // The escaped spelling must appear...
    EXPECT_NE(json.find("evil\\\"name\\\\with\\ncontrol"), std::string::npos);
    EXPECT_NE(json.find("vm=\\\"vm\\\\0\\\""), std::string::npos);
    // ...and no raw control byte may survive anywhere in the document.
    for (const char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
  // Drop the retired hostile name so later snapshots in this binary (and
  // the determinism test below) start clean.
  sim::metrics::registry().reset();
}

// ---------------------------------------------------------------------------
// Flight recorder: an injected corrupt-response-status fault must leave a
// dump whose focus span chain walks the faulted request end to end.

TEST(FlightRecorder, InjectedFaultDumpCarriesFocusSpanChain) {
  sim::tracer().set_enabled(true);
  sim::tracer().clear();
  sim::flight_recorder().clear();
  auto& reg = sim::metrics::registry();
  const std::uint64_t dumps_before = reg.counter_value("vphi.recorder.dumps");

  {
    TestbedConfig cfg;
    cfg.frontend.scheme = WaitScheme::kPolling;
    cfg.frontend.request_timeout_ns = 100'000'000;
    cfg.start_coi_daemon = false;
    Testbed bed{cfg};

    sim::fault_injector().arm_nth(sim::FaultSite::kCorruptResponseStatus, 1);
    auto& guest = bed.vm(0).guest_scif();
    auto epd = guest.open();  // idempotent: the bounded retry heals it
    EXPECT_TRUE(epd);
    if (epd) guest.close(*epd);
    sim::fault_injector().disarm_all();
  }

  EXPECT_GT(reg.counter_value("vphi.recorder.dumps"), dumps_before);
  const sim::FlightDump dump = sim::flight_recorder().last_dump();
  EXPECT_NE(dump.focus, 0u);
  EXPECT_FALSE(dump.reason.empty());

  // The focus section (printed before the ring window) must carry the
  // request's span chain from guest submit through the backend.
  const auto focus_begin = dump.text.find("--- focus span chain");
  const auto focus_end = dump.text.find("--- recent events");
  ASSERT_NE(focus_begin, std::string::npos) << dump.text;
  ASSERT_NE(focus_end, std::string::npos);
  const std::string chain =
      dump.text.substr(focus_begin, focus_end - focus_begin);
  EXPECT_NE(chain.find("submit"), std::string::npos) << chain;
  EXPECT_NE(chain.find("kick"), std::string::npos) << chain;
  EXPECT_NE(chain.find("backend_pop"), std::string::npos) << chain;
  EXPECT_NE(chain.find("used_publish"), std::string::npos) << chain;

  sim::tracer().set_enabled(false);
  sim::tracer().clear();
}

// A dump's window reads the tracer's span records and the recorder's log
// lines onto one simulated-time axis, whatever order they were recorded in.

TEST(FlightRecorder, DumpWindowMergesSpansAndLogsInSimulatedTime) {
  sim::tracer().set_enabled(true);
  sim::tracer().clear();
  sim::flight_recorder().clear();
  const sim::LogLevel saved_level = sim::log_level();
  sim::set_log_level(sim::LogLevel::kWarn);
  sim::TraceId id = 0;
  {
    sim::Actor actor{"window", 6'000};
    sim::ActorScope scope(actor);
    id = sim::tracer().begin_request("send", 5'000);
    sim::tracer().record(id, sim::SpanEvent::kBackendPop, 8'000);
    VPHI_LOG(kWarn, "window-test") << "log at 6000";
    sim::tracer().record(id, sim::SpanEvent::kKick, 5'500);
    actor.advance(1'000);
    VPHI_LOG(kWarn, "window-test") << "log at 7000";
    sim::tracer().record(id, sim::SpanEvent::kComplete, 9'000);
  }
  const sim::FlightDump dump = sim::flight_recorder().dump("window", id);
  sim::set_log_level(saved_level);
  sim::tracer().set_enabled(false);
  sim::tracer().clear();

  const auto begin = dump.text.find("--- recent events");
  ASSERT_NE(begin, std::string::npos) << dump.text;
  std::vector<long long> stamps;
  int spans = 0;
  int logs = 0;
  for (auto at = dump.text.find("\n  [", begin); at != std::string::npos;
       at = dump.text.find("\n  [", at + 1)) {
    const std::string line =
        dump.text.substr(at + 1, dump.text.find('\n', at + 1) - at - 1);
    stamps.push_back(std::stoll(line.substr(3)));
    if (line.find(" span ") != std::string::npos) ++spans;
    if (line.find(" log ") != std::string::npos) ++logs;
  }
  EXPECT_EQ(spans, 4) << dump.text;
  EXPECT_EQ(logs, 2) << dump.text;
  EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end())) << dump.text;
  std::string kick_line = "span kick          trace=";
  kick_line += std::to_string(id);
  kick_line += " op=send";
  EXPECT_NE(dump.text.find(kick_line), std::string::npos) << dump.text;
}

// ---------------------------------------------------------------------------
// Per-VM attribution determinism: two identical seeded 4-VM runs must
// produce byte-identical per-VM snapshots of the race-free counters. The
// per-VM workloads run sequentially — EVENT_IDX suppression counters
// (kicks/irqs suppressed) depend on cross-thread timing and are excluded.

std::string labeled_snapshot(const char* const* names, std::size_t n) {
  auto& reg = sim::metrics::registry();
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [label, v] : reg.counter_by_label(names[i])) {
      out += names[i];
      out += '{';
      out += label;
      out += "}=";
      out += std::to_string(v);
      out += '\n';
    }
  }
  return out;
}

void run_seeded_vm_workloads(Testbed& bed, std::uint32_t num_vms) {
  constexpr scif::Port kPort = 4'700;
  constexpr std::size_t kBytes = 8 * 1024;
  for (std::uint32_t i = 0; i < num_vms; ++i) {
    const std::uint32_t rounds = 6 + 5 * i;  // per-VM skew, fixed by i
    auto& p = bed.card_provider();
    auto lep = p.open();
    ASSERT_TRUE(lep);
    ASSERT_TRUE(p.bind(*lep, static_cast<scif::Port>(kPort + i)));
    ASSERT_TRUE(sim::ok(p.listen(*lep, 2)));
    auto server = std::async(std::launch::async, [&p, lep = *lep, rounds] {
      sim::Actor a{"sink", sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      auto conn = p.accept(lep, SCIF_ACCEPT_SYNC);
      if (!conn) return;
      std::vector<std::uint8_t> buf(kBytes);
      for (std::uint32_t r = 0; r < rounds; ++r) {
        std::size_t got = 0;
        while (got < kBytes) {
          auto n = p.recv(conn->epd, buf.data(),
                          static_cast<std::uint32_t>(kBytes - got),
                          SCIF_RECV_BLOCK);
          if (!n || *n == 0) return;
          got += *n;
        }
      }
      p.close(conn->epd);
      p.close(lep);
    });

    sim::Actor actor{"cli" + std::to_string(i), sim::Actor::AtNow{}};
    sim::ActorScope scope(actor);
    auto& guest = bed.vm(i).guest_scif();
    auto epd = guest.open();
    ASSERT_TRUE(epd);
    ASSERT_TRUE(sim::ok(guest.connect(
        *epd, PortId{bed.card_node(), static_cast<scif::Port>(kPort + i)})));
    std::vector<std::uint8_t> msg(kBytes, static_cast<std::uint8_t>(i));
    for (std::uint32_t r = 0; r < rounds; ++r) {
      ASSERT_TRUE(guest.send(*epd, msg.data(), msg.size(), SCIF_SEND_BLOCK));
    }
    guest.close(*epd);
    server.wait();
  }
}

TEST(PerVmAttribution, SnapshotsIdenticalAcrossSeededRuns) {
  static const char* const kRaceFree[] = {
      "vphi.fe.requests",        "vphi.fe.bytes_out",
      "vphi.fe.bytes_in",        "vphi.fe.timeouts",
      "vphi.fe.retries",         "vphi.fe.protocol_errors",
      "vphi.be.requests.blocking", "vphi.be.requests.worker",
      "vphi.be.validation_failures", "vphi.watchdog.stalls",
  };
  auto one_run = [] {
    sim::metrics::registry().reset();
    TestbedConfig cfg;
    cfg.num_vms = 4;
    cfg.vm_ram_bytes = 64ull << 20;
    cfg.start_coi_daemon = false;
    Testbed bed{cfg};
    run_seeded_vm_workloads(bed, 4);
    return labeled_snapshot(kRaceFree, std::size(kRaceFree));
  };
  const std::string first = one_run();
  const std::string second = one_run();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("vphi.fe.requests{vm=vm3}"), std::string::npos);
  EXPECT_EQ(first, second);
  sim::metrics::registry().reset();
}

// ---------------------------------------------------------------------------
// Stall watchdog: one stranded request (dropped doorbell) fires the
// watchdog exactly once, with a flight-recorder dump, and the counter does
// not tick again while the same request stays pending or after it heals.

TEST(Watchdog, FiresExactlyOncePerStalledRequest) {
  // The budget is a gauge, and vm0's label still holds what earlier cases'
  // gauges left: start from an empty registry.
  sim::metrics::registry().reset();
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kPolling;
  cfg.frontend.pipeline_window = 4;
  cfg.frontend.request_timeout_ns = 100'000'000;  // 100 ms simulated
  cfg.frontend.watchdog_min_samples = 16;
  cfg.start_coi_daemon = false;
  Testbed bed{cfg};

  constexpr scif::Port kPort = 4'780;
  constexpr std::size_t kBytes = 4 * 1024;
  constexpr std::uint32_t kWarmup = 48;

  auto& p = bed.card_provider();
  auto lep = p.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(p.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(p.listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&p, lep = *lep] {
    sim::Actor a{"sink", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto conn = p.accept(lep, SCIF_ACCEPT_SYNC);
    if (!conn) return;
    std::vector<std::uint8_t> buf(kBytes);
    for (std::uint32_t r = 0; r < kWarmup; ++r) {
      std::size_t got = 0;
      while (got < kBytes) {
        auto n = p.recv(conn->epd, buf.data(),
                        static_cast<std::uint32_t>(kBytes - got),
                        SCIF_RECV_BLOCK);
        if (!n || *n == 0) return;
        got += *n;
      }
    }
    p.close(conn->epd);
    p.close(lep);
  });

  sim::Actor actor{"cli", sim::Actor::AtNow{}};
  sim::ActorScope scope(actor);
  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), kPort})));
  std::vector<std::uint8_t> msg(kBytes, 0xA5);
  // Warm-up: enough completed requests for the percentile budget to derive.
  for (std::uint32_t r = 0; r < kWarmup; ++r) {
    ASSERT_TRUE(guest.send(*epd, msg.data(), msg.size(), SCIF_SEND_BLOCK));
  }
  guest.close(*epd);
  server.wait();

  auto& reg = sim::metrics::registry();
  const auto stalls = [] {
    return counter_at("vphi.watchdog.stalls", "vm=vm0");
  };
  const std::uint64_t stalls_before = stalls();
  const std::uint64_t dumps_before = reg.counter_value("vphi.recorder.dumps");

  // Strand exactly one request: the next doorbell is swallowed, the polling
  // wait finds the chain stranded, declares it lost and syncs to its
  // simulated deadline, and since that age passes the latency-derived
  // budget the watchdog must flag it — once.
  sim::fault_injector().arm_nth(sim::FaultSite::kKickDrop, 1);
  auto epd2 = guest.open();  // idempotent: the bounded retry heals it
  EXPECT_TRUE(epd2);
  sim::fault_injector().disarm_all();

  EXPECT_EQ(stalls() - stalls_before, 1u);
  EXPECT_GT(gauge_at("vphi.watchdog.budget_ns", "vm=vm0"), 0);
  EXPECT_GT(reg.counter_value("vphi.recorder.dumps"), dumps_before);

  // Healthy traffic afterwards must not re-fire the watchdog.
  if (epd2) guest.close(*epd2);
  auto epd3 = guest.open();
  if (epd3) guest.close(*epd3);
  EXPECT_EQ(stalls() - stalls_before, 1u);
}

// vphi.watchdog.armed: 0 until the latency budget becomes derivable
// (watchdog_min_samples completions), then flips 0 -> 1 exactly once and
// never back — the gauge is a level pinned at 1, not a re-counted event.

TEST(Watchdog, ArmedGaugeFlipsExactlyOnce) {
  sim::metrics::registry().reset();
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kPolling;
  cfg.frontend.pipeline_window = 4;
  cfg.frontend.watchdog_min_samples = 16;
  cfg.start_coi_daemon = false;
  Testbed bed{cfg};

  constexpr scif::Port kPort = 4'781;
  constexpr std::size_t kBytes = 4 * 1024;
  constexpr std::uint32_t kBelow = 8;   // < watchdog_min_samples
  constexpr std::uint32_t kTotal = 64;  // plenty of samples + scan ticks

  auto& p = bed.card_provider();
  auto lep = p.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(p.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(p.listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&p, lep = *lep] {
    sim::Actor a{"sink", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto conn = p.accept(lep, SCIF_ACCEPT_SYNC);
    if (!conn) return;
    std::vector<std::uint8_t> buf(kBytes);
    for (std::uint32_t r = 0; r < kTotal; ++r) {
      std::size_t got = 0;
      while (got < kBytes) {
        auto n = p.recv(conn->epd, buf.data(),
                        static_cast<std::uint32_t>(kBytes - got),
                        SCIF_RECV_BLOCK);
        if (!n || *n == 0) return;
        got += *n;
      }
    }
    p.close(conn->epd);
    p.close(lep);
  });

  sim::Actor actor{"cli", sim::Actor::AtNow{}};
  sim::ActorScope scope(actor);
  auto& guest = bed.vm(0).guest_scif();
  const auto armed = [] { return gauge_at("vphi.watchdog.armed", "vm=vm0"); };
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), kPort})));
  std::vector<std::uint8_t> msg(kBytes, 0x5A);

  EXPECT_EQ(armed(), 0);
  for (std::uint32_t r = 0; r < kBelow; ++r) {
    ASSERT_TRUE(guest.send(*epd, msg.data(), msg.size(), SCIF_SEND_BLOCK));
  }
  // Below watchdog_min_samples completions: no budget, still disarmed.
  EXPECT_EQ(armed(), 0);

  for (std::uint32_t r = kBelow; r < kTotal; ++r) {
    ASSERT_TRUE(guest.send(*epd, msg.data(), msg.size(), SCIF_SEND_BLOCK));
  }
  guest.close(*epd);
  server.wait();

  // Armed now, and pinned at exactly 1 in the snapshot even though dozens
  // more scans re-derived the budget after the flip.
  EXPECT_EQ(armed(), 1);
  const std::string snap = sim::metrics::registry().snapshot_json();
  EXPECT_NE(snap.find("\"vphi.watchdog.armed\":1"), std::string::npos);
  sim::metrics::registry().reset();
}

// A healthy multi-queue run must never look stalled. Four polling vCPUs
// hammer 4 KiB RMA chunks on four queues of 16 descriptors (abl7's
// submission shape) with no fault armed: each vCPU runs its own simulated
// timeline, so a vCPU that lags the others is not a stall.

TEST(Watchdog, HealthyMultiQueuePollingRunNeverStalls) {
  sim::metrics::registry().reset();
  constexpr int kVcpus = 4;
  constexpr std::size_t kWindow = 1024 * 1024;
  constexpr std::size_t kCall = 128 * 1024;  // 32 chunk requests per call
  constexpr int kCallsPerVcpu = 64;
  TestbedConfig cfg{.card_backing_bytes = 64ull << 20,
                    .vm_ram_bytes = 64ull << 20};
  cfg.ring_size = 16;
  cfg.num_queues = kVcpus;
  cfg.frontend.scheme = WaitScheme::kPolling;
  cfg.frontend.pipeline_window = 32;
  cfg.frontend.rma_chunk = 4 * 1024;
  cfg.backend_policy.classify = BackendPolicy::hybrid(0);
  cfg.start_coi_daemon = false;
  Testbed bed{cfg};
  auto& guest = bed.vm(0).guest_scif();
  auto& card = bed.card_provider();

  // Guest endpoints open back to back, so epd % 4 puts one on each queue.
  struct Client {
    int epd = -1;
    int card_epd = -1;
    scif::RegOffset local = 0;
    scif::RegOffset remote = 0;
  };
  std::vector<Client> clients(kVcpus);
  {
    sim::Actor setup{"mq-setup", sim::Actor::AtNow{}};
    sim::ActorScope scope(setup);
    for (int v = 0; v < kVcpus; ++v) {
      Client& c = clients[static_cast<std::size_t>(v)];
      const auto port = static_cast<scif::Port>(4'790 + v);
      auto lep = card.open();
      ASSERT_TRUE(lep);
      ASSERT_TRUE(card.bind(*lep, port));
      ASSERT_TRUE(sim::ok(card.listen(*lep, 1)));
      auto server = std::async(std::launch::async, [&card, lep = *lep] {
        sim::Actor a{"mq-srv", sim::Actor::AtNow{}};
        sim::ActorScope srv_scope(a);
        auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
        return acc ? acc->epd : -1;
      });
      auto epd = guest.open();
      ASSERT_TRUE(epd);
      ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), port})));
      c.epd = *epd;
      c.card_epd = server.get();
      ASSERT_GE(c.card_epd, 0);
      auto dev = bed.card().memory().allocate(kWindow);
      ASSERT_TRUE(dev);
      auto remote = card.register_mem(
          c.card_epd, bed.card().memory().at(*dev), kWindow, 0,
          scif::SCIF_PROT_READ | scif::SCIF_PROT_WRITE, 0);
      ASSERT_TRUE(remote);
      c.remote = *remote;
      auto buf = bed.vm(0).alloc_user_buffer(kWindow);
      ASSERT_TRUE(buf);
      auto local = guest.register_mem(
          c.epd, *buf, kWindow, 0,
          scif::SCIF_PROT_READ | scif::SCIF_PROT_WRITE, 0);
      ASSERT_TRUE(local);
      c.local = *local;
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> vcpus;
  for (int v = 0; v < kVcpus; ++v) {
    vcpus.emplace_back([&, v] {
      sim::Actor actor{"mq-vcpu" + std::to_string(v), sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      const Client& c = clients[static_cast<std::size_t>(v)];
      for (int k = 0; k < kCallsPerVcpu; ++k) {
        const std::size_t off = static_cast<std::size_t>(k % 8) * kCall;
        const sim::Status st =
            k % 2 == 0
                ? guest.readfrom(c.epd, c.local + off, kCall, c.remote + off, 0)
                : guest.writeto(c.epd, c.local + off, kCall, c.remote + off, 0);
        if (!sim::ok(st)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : vcpus) t.join();

  EXPECT_EQ(failures.load(), 0);
  // The budget was live the whole run.
  EXPECT_EQ(gauge_at("vphi.watchdog.armed", "vm=vm0"), 1);
  EXPECT_EQ(sim::metrics::registry().counter_value("vphi.watchdog.stalls"), 0u);
  {
    sim::Actor teardown{"mq-teardown", sim::Actor::AtNow{}};
    sim::ActorScope scope(teardown);
    for (const Client& c : clients) guest.close(c.epd);
  }
  sim::metrics::registry().reset();
}

}  // namespace
}  // namespace vphi::core
