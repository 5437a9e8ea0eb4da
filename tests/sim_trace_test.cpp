// Observability subsystem tests: request-trace span ordering (serial and
// pipelined, worker-mode backend), the disabled-tracing fast path, metrics
// snapshot determinism under a fault sweep, and the Histogram::percentile
// top-bucket regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "tools/testbed.hpp"

namespace vphi::core {
namespace {

using scif::SCIF_ACCEPT_SYNC;
using scif::SCIF_RECV_BLOCK;
using scif::SCIF_SEND_BLOCK;
using sim::SpanEvent;
using tools::Testbed;
using tools::TestbedConfig;

/// First timestamp of each span event in one request (events sorted by ts
/// at aggregation time, mirroring the exporters).
std::map<SpanEvent, sim::Nanos> event_map(const sim::RequestTrace& req) {
  std::map<SpanEvent, sim::Nanos> m;
  for (const auto& ev : req.events) {
    if (m.find(ev.event) == m.end()) m[ev.event] = ev.ts;
  }
  return m;
}

/// Assert the events that are present follow the pipeline order with
/// non-decreasing timestamps. kKick and kVirq may legitimately be absent
/// (EVENT_IDX suppression); the core hops must all be there.
void expect_causal(const sim::RequestTrace& req) {
  const auto m = event_map(req);
  for (const SpanEvent required :
       {SpanEvent::kSubmit, SpanEvent::kAvailPublish, SpanEvent::kBackendPop,
        SpanEvent::kHostSyscall, SpanEvent::kUsedPublish,
        SpanEvent::kComplete}) {
    EXPECT_TRUE(m.count(required))
        << req.op << " request " << req.id << " missing "
        << sim::span_event_name(required);
  }
  sim::Nanos last = 0;
  for (int e = 0; e < static_cast<int>(SpanEvent::kNumEvents); ++e) {
    const auto it = m.find(static_cast<SpanEvent>(e));
    if (it == m.end()) continue;
    EXPECT_GE(it->second, last)
        << req.op << " request " << req.id << ": "
        << sim::span_event_name(static_cast<SpanEvent>(e))
        << " goes backwards";
    last = it->second;
  }
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::tracer().set_enabled(true);
    sim::tracer().clear();
  }

  void TearDown() override {
    sim::tracer().set_enabled(false);
    sim::tracer().clear();
    sim::fault_injector().disarm_all();
    bed_.reset();
  }

  void make_bed(TestbedConfig cfg) {
    cfg.start_coi_daemon = false;
    bed_ = std::make_unique<Testbed>(cfg);
    sim::tracer().clear();  // drop the stack bring-up ops
  }

  GuestScifProvider& guest() { return bed_->vm(0).guest_scif(); }

  std::unique_ptr<Testbed> bed_;
};

TEST_F(TraceTest, SerialSpanOrdering) {
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kInterrupt;
  make_bed(cfg);

  ASSERT_TRUE(guest().get_node_ids());
  ASSERT_TRUE(guest().get_node_ids());

  const auto requests = sim::tracer().requests();
  ASSERT_EQ(requests.size(), 2u);
  const auto ops = sim::tracer().ops();
  ASSERT_EQ(ops.size(), 2u);
  for (const auto& req : requests) {
    EXPECT_EQ(req.op, "get_node_ids");
    expect_causal(req);
    // The guest-level op umbrella the request links to must exist and wrap
    // the request's whole span.
    ASSERT_NE(req.parent, 0u);
    bool found = false;
    for (const auto& op : ops) {
      if (op.id != req.parent) continue;
      found = true;
      ASSERT_GE(op.events.size(), 2u);
      EXPECT_LE(op.events.front().ts, req.events.front().ts);
      EXPECT_GE(op.events.back().ts, req.events.back().ts);
    }
    EXPECT_TRUE(found) << "request " << req.id << " has dangling parent";
  }

  // The serial walk tiles the timeline, so the aggregated hops telescope to
  // the full submit->complete distance of both requests.
  double hop_total = 0.0;
  for (const auto& h : sim::tracer().hop_breakdown()) {
    hop_total += h.ns.mean() * static_cast<double>(h.ns.count());
  }
  double span_total = 0.0;
  for (const auto& req : requests) {
    const auto m = event_map(req);
    span_total += static_cast<double>(m.at(SpanEvent::kComplete) -
                                      m.at(SpanEvent::kSubmit));
  }
  EXPECT_DOUBLE_EQ(hop_total, span_total);
}

TEST_F(TraceTest, PipelinedWindowWorkerModeOrdering) {
  // Mirror the pipeline test rig: 8 KiB chunks, window 4, all-worker
  // backend — chunk requests overlap on the ring and complete through the
  // per-endpoint FIFO, and every one must still trace causally.
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kInterrupt;
  cfg.frontend.max_payload = 8 * 1024;
  cfg.frontend.pipeline_window = 4;
  cfg.backend_policy.classify = BackendPolicy::all_worker();
  make_bed(cfg);

  constexpr std::size_t kTotal = 64 * 1024;  // 8 chunks
  constexpr scif::Port kPort = 7'700;
  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  auto sink = std::async(std::launch::async, [&card, lep = *lep] {
    sim::Actor a{"sink", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
    if (!acc) return;
    std::vector<std::uint8_t> buf(kTotal);
    std::size_t got = 0;
    while (got < kTotal) {
      auto r = card.recv(acc->epd, buf.data() + got, kTotal - got,
                         SCIF_RECV_BLOCK);
      if (!r || *r == 0) return;
      got += *r;
    }
    card.close(acc->epd);
  });

  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(
      sim::ok(guest().connect(*epd, scif::PortId{bed_->card_node(), kPort})));
  sim::tracer().clear();  // trace exactly the pipelined send

  std::vector<std::uint8_t> data(kTotal, 0x5A);
  auto sent = guest().send(*epd, data.data(), kTotal, SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, kTotal);

  const auto requests = sim::tracer().requests();
  ASSERT_EQ(requests.size(), kTotal / (8 * 1024));
  const auto ops = sim::tracer().ops();
  ASSERT_EQ(ops.size(), 1u);  // one umbrella for the whole chunk walk
  for (const auto& req : requests) {
    EXPECT_EQ(req.op, "send");
    EXPECT_EQ(req.parent, ops.front().id);
    expect_causal(req);
  }
  // Submission order must survive the window: kSubmit timestamps of the
  // chunk requests are non-decreasing in allocation order.
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_GE(requests[i].events.front().ts, requests[i - 1].events.front().ts);
  }

  guest().close(*epd);
  sink.wait();
}

TEST_F(TraceTest, SerialWalkRecordsOneUmbrella) {
  // Window 1 runs the same chunk walk as a wider window: a 3-chunk blocking
  // send opens one umbrella, and every chunk request parents to it.
  constexpr std::size_t kChunk = 8 * 1024;
  constexpr std::size_t kTotal = 2 * kChunk + 1;  // 3 chunks
  constexpr scif::Port kPort = 7'710;
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kInterrupt;
  cfg.frontend.max_payload = kChunk;
  make_bed(cfg);

  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  auto sink = std::async(std::launch::async, [&card, lep = *lep] {
    sim::Actor a{"sink", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
    if (!acc) return;
    std::vector<std::uint8_t> buf(kTotal);
    std::size_t got = 0;
    while (got < kTotal) {
      auto r = card.recv(acc->epd, buf.data() + got, kTotal - got,
                         SCIF_RECV_BLOCK);
      if (!r || *r == 0) return;
      got += *r;
    }
    card.close(acc->epd);
  });

  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(
      sim::ok(guest().connect(*epd, scif::PortId{bed_->card_node(), kPort})));
  sim::tracer().clear();  // trace exactly the serial send

  std::vector<std::uint8_t> data(kTotal, 0x3C);
  auto sent = guest().send(*epd, data.data(), kTotal, SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, kTotal);

  const auto ops = sim::tracer().ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops.front().op, "send");
  const auto requests = sim::tracer().requests();
  ASSERT_EQ(requests.size(), 3u);
  for (const auto& req : requests) {
    EXPECT_EQ(req.op, "send");
    EXPECT_EQ(req.parent, ops.front().id);
  }

  guest().close(*epd);
  sink.wait();
}

TEST_F(TraceTest, ZeroLengthOpsCrossTheRingOnce) {
  // A zero-length send or readfrom is still one wire request, under one
  // umbrella.
  constexpr scif::Port kPort = 7'720;
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kInterrupt;
  make_bed(cfg);

  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 1)));
  auto accepted = std::async(std::launch::async, [&card, lep = *lep] {
    sim::Actor a{"card", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
    return acc ? acc->epd : -1;
  });
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(
      sim::ok(guest().connect(*epd, scif::PortId{bed_->card_node(), kPort})));
  ASSERT_GE(accepted.get(), 0);
  auto& fe = bed_->vm(0).frontend();
  sim::tracer().clear();

  const auto before_send = fe.requests();
  std::uint8_t byte = 0;
  auto sent = guest().send(*epd, &byte, 0, SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, 0u);
  EXPECT_EQ(fe.requests() - before_send, 1u);

  const auto before_read = fe.requests();
  guest().readfrom(*epd, 0, 0, 0, scif::SCIF_RMA_SYNC);
  EXPECT_EQ(fe.requests() - before_read, 1u);

  const auto ops = sim::tracer().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op, "send");
  EXPECT_EQ(ops[1].op, "readfrom");
  guest().close(*epd);
}

TEST_F(TraceTest, EndpointRunnerNeverOverlapsChainsInSimulatedTime) {
  // A pipelined 4 KiB RMA walk in worker mode: all chunks of the endpoint
  // go through its FIFO runner. The runner's host queue drains and
  // refills as host threads race, but in simulated time each chunk starts
  // only after the endpoint's previous chunk published its completion.
  TestbedConfig cfg;
  cfg.frontend.scheme = WaitScheme::kPolling;
  cfg.frontend.pipeline_window = 16;
  cfg.frontend.rma_chunk = 4'096;
  cfg.backend_policy.classify = BackendPolicy::all_worker();
  make_bed(cfg);

  constexpr std::size_t kWindow = 256 * 1024;  // 64 chunks per walk
  constexpr int kWalks = 8;
  constexpr scif::Port kPort = 7'800;
  constexpr int kProt = scif::SCIF_PROT_READ | scif::SCIF_PROT_WRITE;
  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 1)));
  auto accepted = std::async(std::launch::async, [&card, lep = *lep] {
    sim::Actor a{"card", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
    return acc ? acc->epd : -1;
  });
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(
      sim::ok(guest().connect(*epd, scif::PortId{bed_->card_node(), kPort})));
  const int card_epd = accepted.get();
  ASSERT_GE(card_epd, 0);

  auto dev_off = bed_->card().memory().allocate(kWindow);
  ASSERT_TRUE(dev_off);
  auto remote = card.register_mem(
      card_epd, bed_->card().memory().at(*dev_off), kWindow, 0, kProt, 0);
  ASSERT_TRUE(remote);
  auto buf = bed_->vm(0).alloc_user_buffer(kWindow);
  ASSERT_TRUE(buf);
  auto local = guest().register_mem(*epd, *buf, kWindow, 0, kProt, 0);
  ASSERT_TRUE(local);

  sim::tracer().clear();  // trace exactly the walks
  for (int walk = 0; walk < kWalks; ++walk) {
    const sim::Status st =
        walk % 2 == 0 ? guest().readfrom(*epd, *local, kWindow, *remote,
                                         scif::SCIF_RMA_SYNC)
                      : guest().writeto(*epd, *local, kWindow, *remote,
                                        scif::SCIF_RMA_SYNC);
    ASSERT_EQ(st, sim::Status::kOk) << "walk " << walk;
  }

  // Trace ids follow submission order, which is the runner's FIFO order.
  std::size_t chunks = 0;
  sim::Nanos prev_used = 0;
  for (const auto& req : sim::tracer().requests()) {
    if (req.op != "readfrom" && req.op != "writeto") continue;
    const auto m = event_map(req);
    ASSERT_TRUE(m.count(SpanEvent::kBackendPop));
    ASSERT_TRUE(m.count(SpanEvent::kUsedPublish));
    EXPECT_GE(m.at(SpanEvent::kBackendPop), prev_used)
        << "chunk " << chunks << " started before its predecessor finished";
    prev_used = m.at(SpanEvent::kUsedPublish);
    ++chunks;
  }
  EXPECT_EQ(chunks, kWalks * kWindow / 4'096);
  guest().close(*epd);
}

TEST_F(TraceTest, DisabledTracingAllocatesNothing) {
  TestbedConfig cfg;
  make_bed(cfg);
  sim::tracer().set_enabled(false);
  sim::tracer().clear();

  EXPECT_EQ(sim::tracer().begin_request("noop", 0), 0u);
  {
    sim::TraceOpScope op("noop");
    EXPECT_EQ(op.id(), 0u);
  }
  ASSERT_TRUE(guest().get_node_ids());
  ASSERT_TRUE(guest().get_node_ids());

  EXPECT_EQ(sim::tracer().request_count(), 0u);
  EXPECT_EQ(sim::tracer().event_count(), 0u);
  EXPECT_TRUE(sim::tracer().requests().empty());
  EXPECT_TRUE(sim::tracer().ops().empty());
}

/// One deterministic fault-sweep workload; returns the values of the
/// race-free metric names. (Counters that depend on real-time interleaving
/// with the backend thread — kick/irq suppression, fast reaps — are
/// deliberately left out: EVENT_IDX makes them legitimately racy.)
std::map<std::string, std::uint64_t> sweep_once() {
  auto& reg = sim::metrics::registry();
  auto& fi = sim::fault_injector();
  reg.reset();
  fi.disarm_all();
  fi.reset_counters();
  fi.seed(7);

  {
    TestbedConfig cfg;
    cfg.frontend.scheme = WaitScheme::kInterrupt;
    cfg.frontend.request_timeout_ns = 50'000'000;
    cfg.start_coi_daemon = false;
    Testbed bed{cfg};
    auto& guest = bed.vm(0).guest_scif();

    for (int i = 0; i < 3; ++i) EXPECT_TRUE(guest.get_node_ids());
    // Deterministic nth-hit trigger: the 2nd response after arming comes
    // back with a corrupt status. get_node_ids is idempotent and the
    // timeout is set, so the frontend counts a protocol error and heals it
    // with one retry — every call still succeeds.
    fi.arm_nth(sim::FaultSite::kCorruptResponseStatus, 2, 1);
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(guest.get_node_ids());
    fi.disarm_all();
  }

  std::map<std::string, std::uint64_t> out;
  for (const char* name :
       {"vphi.fe.requests", "vphi.fe.protocol_errors", "vphi.fe.timeouts",
        "vphi.fe.retries", "vphi.fe.op.get_node_ids.errors",
        "vphi.be.requests.blocking", "vphi.be.requests.worker",
        "vphi.be.op.get_node_ids.requests", "vphi.be.malformed_chains",
        "vphi.be.validation_failures", "vphi.ring.chains_poisoned",
        "vphi.ring.chains_truncated",
        "vphi.fault.corrupt-response-status.hits",
        "vphi.fault.corrupt-response-status.fires"}) {
    out[name] = reg.counter_value(name);
  }
  return out;
}

TEST(MetricsRegistryTest, SnapshotDeterministicUnderFaultSweep) {
  const auto first = sweep_once();
  const auto second = sweep_once();
  EXPECT_EQ(first, second);

  // Sanity: the sweep actually moved the interesting needles — 6 calls
  // plus the one retry that healed the corrupted response.
  EXPECT_EQ(first.at("vphi.fe.requests"), 7u);
  EXPECT_EQ(first.at("vphi.fe.retries"), 1u);
  EXPECT_EQ(first.at("vphi.fe.protocol_errors"), 1u);
  EXPECT_EQ(first.at("vphi.fault.corrupt-response-status.fires"), 1u);

  // The JSON snapshot itself is stable between immediate calls (sorted
  // keys, no iteration-order leakage).
  const auto& reg = sim::metrics::registry();
  EXPECT_EQ(reg.snapshot_json(), reg.snapshot_json());
  EXPECT_NE(reg.snapshot_json().find("\"vphi.fe.protocol_errors\":1"),
            std::string::npos);
}

TEST(HistogramPercentileTest, TopBucketReturnsObservedMax) {
  // Regression: a single sample of 1000 lands in the (512, 1024] bucket;
  // interpolation used to report the bucket's exclusive upper bound 1024 —
  // a value never observed — for high quantiles.
  sim::Histogram h;
  h.add(1'000);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1'000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 1'000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1'000.0);  // clamped to [min, max]
}

TEST(HistogramPercentileTest, EdgeCases) {
  sim::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);

  sim::Histogram h;
  h.add(0);
  h.add(100);
  h.add(1'000'000);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1'000'000.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 1'000'000.0);  // clamped above
  EXPECT_GE(h.percentile(0.0), 0.0);                 // clamped below
  EXPECT_LE(h.percentile(0.5), 1'000'000.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.percentile(0.25), h.percentile(0.75));
}

TEST(HistogramPercentileTest, MergeCombinesSummaries) {
  sim::Histogram a;
  a.add(10);
  a.add(20);
  sim::Histogram b;
  b.add(30);
  b.add(1'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), (10.0 + 20.0 + 30.0 + 1'000.0) / 4.0);
  EXPECT_DOUBLE_EQ(a.percentile(1.0), 1'000.0);
  EXPECT_DOUBLE_EQ(a.min(), 10.0);
}

// ---------------------------------------------------------------------------
// Tail-based trace sampling: the keep/drop decision at kComplete

/// Drive one full request chain (submit at `ts`, complete at
/// `ts + latency`) and return its trace id.
sim::TraceId drive_chain(sim::Nanos ts, sim::Nanos latency) {
  const sim::TraceId id = sim::tracer().begin_request("fleet", ts);
  sim::tracer().record(id, SpanEvent::kKick, ts + 1);
  sim::tracer().record(id, SpanEvent::kComplete, ts + latency);
  return id;
}

TEST(TailSampling, KeepsAnomalousAndSlowDropsMostHealthy) {
  auto& tr = sim::tracer();
  tr.set_enabled(true);
  tr.clear();
  sim::TracerConfig cfg;
  cfg.sample.tail = true;
  cfg.sample.latency_threshold_ns = 10'000;
  cfg.sample.keep_per_1024 = 10;  // ~1% healthy retention
  tr.set_config(cfg);

  // One anomalous chain: flagged before its tail, so the decision sees it.
  const sim::TraceId bad = tr.begin_request("fleet", 0);
  tr.record(bad, SpanEvent::kKick, 1);
  tr.mark_anomaly(bad);
  tr.record(bad, SpanEvent::kComplete, 500);

  // One slow chain (latency over the threshold) and many healthy ones.
  const sim::TraceId slow = drive_chain(1'000, 50'000);
  constexpr int kHealthy = 4'096;
  for (int i = 0; i < kHealthy; ++i) {
    drive_chain(100'000 + 100 * i, 500);
  }

  const auto stats = tr.tail_stats();
  EXPECT_EQ(stats.kept_anomalous, 1u);
  EXPECT_EQ(stats.kept_slow, 1u);
  EXPECT_EQ(stats.kept_sampled + stats.dropped,
            static_cast<std::uint64_t>(kHealthy));
  // The lottery keeps ~1%; bound it at 3% (4096 draws, p ~= 0.0098: a 3%
  // bound is > 12 sigma out, so this never flakes).
  EXPECT_LE(stats.kept_sampled, static_cast<std::uint64_t>(kHealthy) * 3 / 100);

  // The anomalous and slow chains' full span chains survived verbatim.
  const auto kept = tr.requests();
  auto find_id = [&](sim::TraceId id) {
    for (const auto& req : kept) {
      if (req.id == id) return true;
    }
    return false;
  };
  EXPECT_TRUE(find_id(bad));
  EXPECT_TRUE(find_id(slow));
  EXPECT_EQ(kept.size(),
            2 + stats.kept_sampled);  // nothing else survived the tail

  tr.set_config(sim::TracerConfig{});
  tr.clear();
  tr.set_enabled(false);
  sim::metrics::registry().reset();
}

TEST(TailSampling, IncompleteChainsAreAlwaysRetained) {
  auto& tr = sim::tracer();
  tr.set_enabled(true);
  tr.clear();
  sim::TracerConfig cfg;
  cfg.sample.tail = true;
  cfg.sample.keep_per_1024 = 0;  // drop every healthy completed chain
  tr.set_config(cfg);

  const sim::TraceId lost = tr.begin_request("fleet", 0);
  tr.record(lost, SpanEvent::kKick, 1);  // never completes (dropped request)
  drive_chain(10, 100);                  // healthy, completed -> erased

  const auto kept = tr.requests();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].id, lost);
  EXPECT_EQ(tr.tail_stats().dropped, 1u);

  tr.set_config(sim::TracerConfig{});
  tr.clear();
  tr.set_enabled(false);
  sim::metrics::registry().reset();
}

// ---------------------------------------------------------------------------
// Golden views: a fixed synthetic trace with an op umbrella, out-of-order
// appends within a chain, two counter tracks and a late record for an id
// recorded before clear(). The expected requests(), hop sums and Chrome
// trace bytes pin every read view of the tracer's log; ids are allocated
// process-wide, so the expected text names them symbolically.

std::string with_ids(
    std::string s,
    const std::vector<std::pair<std::string, sim::TraceId>>& ids) {
  for (const auto& [name, id] : ids) {
    for (auto at = s.find(name); at != std::string::npos;
         at = s.find(name, at)) {
      s.replace(at, name.size(), std::to_string(id));
    }
  }
  return s;
}

TEST(TraceViews, GoldenSyntheticTrace) {
  auto& tr = sim::tracer();
  tr.set_enabled(true);
  tr.clear();
  sim::Actor actor{"golden", 1'000};
  sim::ActorScope actor_scope(actor);

  const sim::TraceId stale = tr.begin_request("stale", 10);
  tr.record(stale, SpanEvent::kKick, 20);
  tr.clear();

  sim::TraceId op = 0;
  sim::TraceId a = 0;
  sim::TraceId b = 0;
  {
    sim::TraceOpScope umbrella("readfrom");  // opens at 1000
    op = umbrella.id();
    a = tr.begin_request("readfrom", 1'100);
    b = tr.begin_request("readfrom", 1'150);
    tr.record(a, SpanEvent::kAvailPublish, 1'200);
    tr.record(b, SpanEvent::kBackendPop, 1'500);  // before its avail_publish
    tr.record(b, SpanEvent::kAvailPublish, 1'250);
    tr.record(a, SpanEvent::kKick, 1'300);
    tr.record(stale, SpanEvent::kBackendPop, 1'320);  // pre-clear id
    tr.record(a, SpanEvent::kBackendPop, 1'400);
    tr.record_counter("ring.occupancy", 1'000, 2);
    tr.record(a, SpanEvent::kComplete, 2'000);
    tr.record(b, SpanEvent::kComplete, 2'100);
    tr.record(b, SpanEvent::kUsedPublish, 2'100);  // ties sort by pipeline
    tr.record_counter("vm0.bytes", 1'200, 0.25);
    tr.record_counter("ring.occupancy", 1'500, 0.5);
    actor.advance(1'500);  // the umbrella closes at 2500
  }
  const sim::TraceId c = tr.begin_request("open", 3'000);
  tr.record(c, SpanEvent::kComplete, 3'400);
  tr.record(c, SpanEvent::kKick, 3'050);

  const auto dump_chains = [](const std::vector<sim::RequestTrace>& chains) {
    std::string s;
    for (const auto& r : chains) {
      s += '#';
      s += std::to_string(r.id);
      s += ' ';
      s += r.op;
      s += " parent=";
      s += std::to_string(r.parent);
      s += ':';
      for (const auto& ev : r.events) {
        s += ' ';
        s += sim::span_event_name(ev.event);
        s += '@';
        s += std::to_string(ev.ts);
      }
      s += '\n';
    }
    return s;
  };
  const std::string reqs = dump_chains(tr.requests());
  const std::string ops = dump_chains(tr.ops());
  std::string hops;
  for (const auto& h : tr.hop_breakdown()) {
    hops += std::string(sim::span_event_name(h.from)) + "->" +
            sim::span_event_name(h.to) + " n=" +
            std::to_string(h.ns.count()) + " sum=" +
            std::to_string(static_cast<long long>(
                h.ns.mean() * static_cast<double>(h.ns.count()))) +
            "\n";
  }
  const std::vector<std::pair<std::string, sim::TraceId>> ids = {
      {"OP", op}, {"RA", a}, {"RB", b}, {"RC", c}};
  EXPECT_EQ(reqs, with_ids(
      "#RA readfrom parent=OP: submit@1100 avail_publish@1200 kick@1300 backend_pop@1400 complete@2000\n"
      "#RB readfrom parent=OP: submit@1150 avail_publish@1250 backend_pop@1500 used_publish@2100 complete@2100\n"
      "#RC open parent=0: submit@3000 kick@3050 complete@3400\n",
      ids));
  EXPECT_EQ(ops, with_ids(
      "#OP readfrom parent=0: submit@1000 complete@2500\n",
      ids));
  EXPECT_EQ(hops,
      "submit->avail_publish n=2 sum=200\n"
      "submit->kick n=1 sum=50\n"
      "avail_publish->kick n=1 sum=100\n"
      "avail_publish->backend_pop n=1 sum=250\n"
      "kick->backend_pop n=1 sum=100\n"
      "kick->complete n=1 sum=350\n"
      "backend_pop->used_publish n=1 sum=600\n"
      "backend_pop->complete n=1 sum=600\n"
      "used_publish->complete n=1 sum=0\n");
  EXPECT_EQ(tr.request_count(), 3u);
  EXPECT_EQ(tr.event_count(), 15u);
  EXPECT_EQ(tr.chrome_trace_json(), with_ids(
      R"({"displayTimeUnit":"ms","traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"guest ops"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"frontend"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"virtio ring"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"backend"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"vIRQ"}},)"
      R"({"pid":1,"tid":1,"ts":1.000000,"name":"readfrom","ph":"X","dur":1.500000,"args":{"trace":OP,"op":"readfrom"}},)"
      R"({"pid":1,"tid":2,"ts":1.200000,"name":"avail_publish\u2192kick","ph":"X","dur":0.100000,"args":{"trace":RA,"op":"readfrom"}},)"
      R"({"pid":1,"tid":2,"ts":1.400000,"name":"backend_pop\u2192complete","ph":"X","dur":0.600000,"args":{"trace":RA,"op":"readfrom"}},)"
      R"({"pid":1,"tid":2,"ts":2.000000,"name":"complete","ph":"i","s":"t","args":{"trace":RA,"op":"readfrom"}},)"
      R"({"pid":1,"tid":2,"ts":2.100000,"name":"used_publish\u2192complete","ph":"X","dur":0.000000,"args":{"trace":RB,"op":"readfrom"}},)"
      R"({"pid":1,"tid":2,"ts":2.100000,"name":"complete","ph":"i","s":"t","args":{"trace":RB,"op":"readfrom"}},)"
      R"({"pid":1,"tid":2,"ts":3.000000,"name":"submit\u2192kick","ph":"X","dur":0.050000,"args":{"trace":RC,"op":"open"}},)"
      R"({"pid":1,"tid":2,"ts":3.050000,"name":"kick\u2192complete","ph":"X","dur":0.350000,"args":{"trace":RC,"op":"open"}},)"
      R"({"pid":1,"tid":2,"ts":3.400000,"name":"complete","ph":"i","s":"t","args":{"trace":RC,"op":"open"}},)"
      R"({"pid":1,"tid":3,"ts":1.100000,"name":"submit\u2192avail_publish","ph":"X","dur":0.100000,"args":{"trace":RA,"op":"readfrom"}},)"
      R"({"pid":1,"tid":3,"ts":1.150000,"name":"submit\u2192avail_publish","ph":"X","dur":0.100000,"args":{"trace":RB,"op":"readfrom"}},)"
      R"({"pid":1,"tid":3,"ts":1.500000,"name":"backend_pop\u2192used_publish","ph":"X","dur":0.600000,"args":{"trace":RB,"op":"readfrom"}},)"
      R"({"pid":1,"tid":4,"ts":1.250000,"name":"avail_publish\u2192backend_pop","ph":"X","dur":0.250000,"args":{"trace":RB,"op":"readfrom"}},)"
      R"({"pid":1,"tid":4,"ts":1.300000,"name":"kick\u2192backend_pop","ph":"X","dur":0.100000,"args":{"trace":RA,"op":"readfrom"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"timeline counters"}},)"
      R"({"pid":1,"tid":6,"ts":1.000000,"ph":"C","name":"ring.occupancy","args":{"value":2}},)"
      R"({"pid":1,"tid":6,"ts":1.200000,"ph":"C","name":"vm0.bytes","args":{"value":0.25}},)"
      R"({"pid":1,"tid":6,"ts":1.500000,"ph":"C","name":"ring.occupancy","args":{"value":0.5}}]})",
      ids));

  tr.clear();
  tr.set_enabled(false);
}

}  // namespace
}  // namespace vphi::core
