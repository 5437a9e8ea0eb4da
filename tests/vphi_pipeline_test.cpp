// Pipelined multi-chunk transfer tests: ordering, short-completion
// truncation and fault healing when several chunks of one logical transfer
// are in flight on the ring at once (FrontendConfig::pipeline_window > 1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "tools/testbed.hpp"

namespace vphi::core {
namespace {

using scif::PortId;
using scif::SCIF_ACCEPT_SYNC;
using scif::SCIF_PROT_READ;
using scif::SCIF_PROT_WRITE;
using scif::SCIF_RECV_BLOCK;
using scif::SCIF_RMA_SYNC;
using scif::SCIF_SEND_BLOCK;
using sim::FaultSite;
using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

class PipelineTest : public ::testing::Test {
 protected:
  // 8 KiB bounce buffers (and RMA chunks) make even modest transfers span
  // many chunks, so the window (4) genuinely overlaps requests on the
  // ring. All-worker
  // backend: same-endpoint chunks run through the per-endpoint FIFO, which
  // is exactly the ordering property under test.
  static constexpr std::size_t kChunk = 8 * 1024;
  static constexpr std::size_t kWindow = 4;

  void SetUp() override {
    TestbedConfig cfg;
    cfg.frontend.scheme = WaitScheme::kInterrupt;
    cfg.frontend.max_payload = kChunk;
    cfg.frontend.pipeline_window = kWindow;
    cfg.frontend.rma_chunk = kChunk;
    cfg.frontend.request_timeout_ns = 50'000'000;  // 50 ms simulated
    cfg.backend_policy.classify = BackendPolicy::all_worker();
    cfg.start_coi_daemon = false;
    bed_ = std::make_unique<Testbed>(cfg);
  }

  void TearDown() override {
    sim::fault_injector().disarm_all();
    bed_.reset();
  }

  FrontendDriver& fe() { return bed_->vm(0).frontend(); }
  hv::Vm& vm() { return bed_->vm(0).vm(); }
  GuestScifProvider& guest() { return bed_->vm(0).guest_scif(); }

  struct Snapshot {
    std::uint16_t free_desc = 0;
    std::uint64_t live_allocs = 0;
    std::size_t pending = 0;
  };
  Snapshot snap() {
    return {vm().vq().free_descriptors(), vm().ram().allocation_count(),
            fe().pending_requests()};
  }

  /// Same healing invariant as the fault sweep: rescued chains come back
  /// asynchronously, so quiesce the frontend, then the ring, the guest
  /// allocator and the pending map must be at their pre-fault state.
  void expect_restored(const Snapshot& before) {
    sim::fault_injector().disarm_all();
    fe().quiesce();
    const Snapshot after = snap();
    EXPECT_EQ(after.free_desc, before.free_desc);
    EXPECT_EQ(after.live_allocs, before.live_allocs);
    EXPECT_EQ(after.pending, before.pending);
  }

  std::unique_ptr<Testbed> bed_;
};

TEST_F(PipelineTest, StreamOrderingPreservedAcrossWindow) {
  // A 128 KiB send is 16 chunks, up to 4 in flight; the worker backend's
  // per-endpoint queue must deliver them in submission order or the echoed
  // bytes come back permuted.
  constexpr std::size_t kTotal = 128 * 1024;
  constexpr scif::Port kPort = 7'600;

  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  auto echo = std::async(std::launch::async, [&card, lep = *lep] {
    sim::Actor a{"echo", sim::Actor::AtNow{}};
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
    card.send(acc->epd, buf.data(), kTotal, SCIF_SEND_BLOCK);
    card.close(acc->epd);
  });

  sim::Actor a{"guest", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest().connect(*epd, PortId{bed_->card_node(), kPort})));

  std::vector<std::uint8_t> out(kTotal), in(kTotal, 0);
  sim::Rng rng{42};
  rng.fill(out.data(), out.size());

  auto sent = guest().send(*epd, out.data(), kTotal, SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, kTotal);

  std::size_t got = 0;
  while (got < kTotal) {
    auto r = guest().recv(*epd, in.data() + got, kTotal - got,
                          SCIF_RECV_BLOCK);
    ASSERT_TRUE(r);
    ASSERT_GT(*r, 0u);
    got += *r;
  }
  EXPECT_EQ(std::memcmp(out.data(), in.data(), kTotal), 0)
      << "pipelined chunks were reordered on the wire";
  guest().close(*epd);
  echo.get();
  // Both directions really chunked: >= 32 transfer requests crossed the
  // ring for this endpoint.
  EXPECT_GE(fe().requests(), 2 * kTotal / kChunk);
}

TEST_F(PipelineTest, ShortRecvMidWindowTruncatesToCompletedPrefix) {
  // The peer sends 20 KiB (2.5 chunks) and closes. The pipelined recv walk
  // has up to 4 chunks posted; chunk 3 legitimately completes short and
  // chunk 4 hits the closed stream. recv must return exactly the in-order
  // completed prefix — 20 KiB — and the stragglers' results must be
  // discarded without leaking state.
  constexpr std::size_t kWire = 20 * 1024;
  constexpr std::size_t kAsk = 64 * 1024;
  constexpr scif::Port kPort = 7'610;

  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&card, lep = *lep] {
    sim::Actor a{"srv", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
    if (!acc) return;
    std::vector<std::uint8_t> buf(kWire, 0x7A);
    card.send(acc->epd, buf.data(), buf.size(), SCIF_SEND_BLOCK);
    card.close(acc->epd);
  });

  sim::Actor a{"guest", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest().connect(*epd, PortId{bed_->card_node(), kPort})));
  server.get();

  const auto before_pending = fe().pending_requests();
  std::vector<std::uint8_t> in(kAsk, 0);
  auto got = guest().recv(*epd, in.data(), kAsk, SCIF_RECV_BLOCK);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, kWire);
  for (std::size_t i = 0; i < kWire; ++i) {
    ASSERT_EQ(in[i], 0x7A) << "short prefix corrupted at byte " << i;
  }
  for (std::size_t i = kWire; i < kAsk; ++i) {
    ASSERT_EQ(in[i], 0) << "bytes past the completed prefix were written";
  }
  EXPECT_EQ(fe().pending_requests(), before_pending)
      << "straggler chunks were not drained";
  guest().close(*epd);
}

TEST_F(PipelineTest, DroppedKickOnFirstChunkHealsWindow) {
  // The burst's first chunk carries the only doorbell (chunks 2..4 are
  // published while it is pending, so EVENT_IDX suppresses theirs). Drop
  // it: the device never wakes, the whole window strands, and the first
  // wait()'s deadline rescue re-rings. The transfer reports the timeout
  // and every descriptor, bounce buffer and pending entry comes back.
  constexpr std::size_t kTotal = 32 * 1024;  // 4 chunks == one full window
  constexpr scif::Port kPort = 7'620;

  auto& card = bed_->card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  std::atomic<bool> stop{false};
  auto sink = std::async(std::launch::async, [&card, &stop, lep = *lep] {
    sim::Actor a{"sink", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
    if (!acc) return;
    std::vector<std::uint8_t> buf(kTotal);
    while (!stop.load()) {
      auto r = card.recv(acc->epd, buf.data(), buf.size(), SCIF_RECV_BLOCK);
      if (!r || *r == 0) break;
    }
    card.close(acc->epd);
  });

  sim::Actor a{"guest", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest().connect(*epd, PortId{bed_->card_node(), kPort})));

  const auto before = snap();
  const auto kicks_suppressed_before = vm().vq().suppressed_kicks();
  sim::fault_injector().arm_nth(FaultSite::kKickDrop, 1);

  std::vector<std::uint8_t> out(kTotal, 0x5B);
  auto sent = guest().send(*epd, out.data(), kTotal, SCIF_SEND_BLOCK);
  // The first chunk never completed, so no prefix exists: the transfer
  // surfaces the transport timeout itself (send is not retried — it is not
  // idempotent).
  EXPECT_EQ(sent.status(), Status::kTimedOut);
  EXPECT_GE(vm().vq().dropped_kicks(), 1u);
  EXPECT_GE(fe().timeouts(), 1u);
  EXPECT_GE(fe().op_timeouts(Op::kSend), 1u);
  // Deterministic suppression: while the (dropped) doorbell was pending the
  // device was asleep, so the sibling chunks' kicks were all elided.
  EXPECT_GE(vm().vq().suppressed_kicks() - kicks_suppressed_before, 2u);

  expect_restored(before);

  // The transport heals: the same endpoint moves data again afterwards.
  auto again = guest().send(*epd, out.data(), kChunk, SCIF_SEND_BLOCK);
  ASSERT_TRUE(again);
  EXPECT_EQ(*again, kChunk);
  stop.store(true);
  guest().close(*epd);
  sink.get();
}

TEST_F(PipelineTest, MisalignedSgOnFirstChunkFailsReadfrom) {
  // A zero-copy readfrom of one full window draws the sg fault sites once
  // per chunk it submits and nowhere else, so arming the first
  // kSgMisalign hit misaligns chunk 1 itself: the backend rejects it and
  // the readfrom fails, while its three siblings go out clean.
  constexpr std::size_t kTotal = kWindow * kChunk;
  constexpr scif::Port kPort = 7'630;
  constexpr int kProt = SCIF_PROT_READ | SCIF_PROT_WRITE;

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

  sim::Actor a{"guest", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest().connect(*epd, PortId{bed_->card_node(), kPort})));
  const int card_epd = accepted.get();
  ASSERT_GE(card_epd, 0);

  auto dev_off = bed_->card().memory().allocate(kTotal);
  ASSERT_TRUE(dev_off);
  auto remote = card.register_mem(
      card_epd, bed_->card().memory().at(*dev_off), kTotal, 0, kProt, 0);
  ASSERT_TRUE(remote);
  auto buf = bed_->vm(0).alloc_user_buffer(kTotal);
  ASSERT_TRUE(buf);
  auto local = guest().register_mem(*epd, *buf, kTotal, 0, kProt, 0);
  ASSERT_TRUE(local);

  const auto& reg = sim::metrics::registry();
  const auto hits_before = reg.counter_value("vphi.fault.sg-misalign.hits");
  const auto rejected_before = bed_->vm(0).backend().validation_failures();
  sim::fault_injector().arm_nth(FaultSite::kSgMisalign, 1);
  EXPECT_EQ(guest().readfrom(*epd, *local, kTotal, *remote, SCIF_RMA_SYNC),
            Status::kInvalidArgument);
  sim::fault_injector().disarm_all();
  EXPECT_EQ(reg.counter_value("vphi.fault.sg-misalign.hits") - hits_before,
            kWindow)
      << "one draw per chunk submitted";
  EXPECT_EQ(bed_->vm(0).backend().validation_failures() - rejected_before,
            1u);

  // The window is still usable once the fault is gone.
  EXPECT_EQ(guest().readfrom(*epd, *local, kTotal, *remote, SCIF_RMA_SYNC),
            Status::kOk);
  guest().close(*epd);
}

}  // namespace
}  // namespace vphi::core
