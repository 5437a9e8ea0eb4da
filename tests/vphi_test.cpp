// End-to-end tests of the vPHI split-driver stack: a guest application
// talks through GuestScifProvider -> FrontendDriver -> virtio ring ->
// BackendDevice -> host SCIF -> PCIe -> card. Covers functionality (byte-
// exact transfers, full API surface) and the paper's headline timing
// anchors (382 us 1-byte latency, 375 us overhead, 93% waiting scheme,
// 4.6 GB/s = 72% RMA throughput).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "metric_reads.hpp"
#include "scif/types.hpp"
#include "sim/actor.hpp"
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
using sim::Nanos;
using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

constexpr scif::Port kPort = 600;

class VphiFixture : public ::testing::Test {
 protected:
  VphiFixture() : bed_(TestbedConfig{}) {}
  explicit VphiFixture(const TestbedConfig& config) : bed_(config) {}

  /// Card-side echo-ready server: accepts one connection.
  std::future<int> card_listener(scif::Port port, int* listener_out = nullptr) {
    auto lep = bed_.card_provider().open();
    EXPECT_TRUE(lep);
    EXPECT_TRUE(bed_.card_provider().bind(*lep, port));
    EXPECT_TRUE(sim::ok(bed_.card_provider().listen(*lep, 8)));
    if (listener_out != nullptr) *listener_out = *lep;
    const int listener = *lep;
    return std::async(std::launch::async, [this, listener] {
      sim::Actor a{"card-server"};
      sim::ActorScope scope(a);
      auto acc = bed_.card_provider().accept(listener, SCIF_ACCEPT_SYNC);
      EXPECT_TRUE(acc);
      return acc ? acc->epd : -1;
    });
  }

  /// Connect the guest of VM `i` to a card listener; returns {guest epd,
  /// card epd}.
  std::pair<int, int> guest_pair(std::size_t i = 0, scif::Port port = kPort) {
    auto server = card_listener(port);
    auto& guest = bed_.vm(i).guest_scif();
    auto epd = guest.open();
    EXPECT_TRUE(epd);
    EXPECT_TRUE(sim::ok(guest.connect(*epd, PortId{bed_.card_node(), port})));
    return {*epd, server.get()};
  }

  /// vm0's counts since this fixture was built; made before bed_.
  const LabelDeltas vm0_{"vm=vm0"};
  Testbed bed_;
};

TEST_F(VphiFixture, GuestOpensAndClosesEndpoint) {
  auto& guest = bed_.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  EXPECT_EQ(guest.close(*epd), Status::kOk);
  EXPECT_EQ(guest.close(*epd), Status::kBadDescriptor);
  EXPECT_EQ(vm0_["vphi.be.op.open.requests"], 1u);
  EXPECT_EQ(vm0_["vphi.be.op.close.requests"], 2u);
}

TEST_F(VphiFixture, GuestConnectsToCardService) {
  auto [guest_epd, card_epd] = guest_pair();
  EXPECT_GE(guest_epd, 0);
  EXPECT_GE(card_epd, 0);
  // accept ran on a worker thread per the paper's policy.
  EXPECT_GE(vm0_["vphi.be.requests.blocking"], 2u);
}

TEST_F(VphiFixture, SendRecvRoundtripThroughTheRing) {
  auto [guest_epd, card_epd] = guest_pair();
  auto& guest = bed_.vm(0).guest_scif();
  auto& card = bed_.card_provider();

  sim::Rng rng{21};
  std::vector<std::uint8_t> msg(50'000);
  rng.fill(msg.data(), msg.size());

  auto sent = guest.send(guest_epd, msg.data(), msg.size(), SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, msg.size());

  std::vector<std::uint8_t> got(msg.size());
  auto received = card.recv(card_epd, got.data(), got.size(), SCIF_RECV_BLOCK);
  ASSERT_TRUE(received);
  EXPECT_EQ(got, msg);

  // Card -> guest direction.
  auto back = card.send(card_epd, msg.data(), 1'000, SCIF_SEND_BLOCK);
  ASSERT_TRUE(back);
  std::vector<std::uint8_t> got2(1'000);
  auto received2 = guest.recv(guest_epd, got2.data(), 1'000, SCIF_RECV_BLOCK);
  ASSERT_TRUE(received2);
  EXPECT_EQ(*received2, 1'000u);
  EXPECT_EQ(std::memcmp(got2.data(), msg.data(), 1'000), 0);
}

TEST_F(VphiFixture, LargeTransferChunksAtKmallocMax) {
  // 10 MiB > KMALLOC_MAX_SIZE (4 MiB): the frontend must split it into 3
  // ring transactions (4 + 4 + 2 MiB), exactly the paper's chunking rule.
  auto [guest_epd, card_epd] = guest_pair();
  auto& guest = bed_.vm(0).guest_scif();

  const std::size_t total = 10ull << 20;
  std::vector<std::uint8_t> msg(total);
  sim::Rng rng{22};
  rng.fill(msg.data(), msg.size());

  const auto sends_before = vm0_["vphi.be.op.send.requests"];
  auto receiver = std::async(std::launch::async, [&, card_epd = card_epd] {
    sim::Actor a{"receiver"};
    sim::ActorScope scope(a);
    std::vector<std::uint8_t> got(total);
    auto r = bed_.card_provider().recv(card_epd, got.data(), got.size(),
                                       SCIF_RECV_BLOCK);
    EXPECT_TRUE(r);
    return got;
  });
  auto sent = guest.send(guest_epd, msg.data(), msg.size(), SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, total);
  EXPECT_EQ(vm0_["vphi.be.op.send.requests"] - sends_before, 3u);
  EXPECT_EQ(receiver.get(), msg);
}

TEST_F(VphiFixture, GuestSeesRemoteErrorCodes) {
  auto& guest = bed_.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  EXPECT_EQ(guest.connect(*epd, PortId{bed_.card_node(), 31'000}),
            Status::kConnectionRefused);
  EXPECT_EQ(guest.connect(*epd, PortId{77, 1}), Status::kNoDevice);
  std::uint8_t b;
  EXPECT_EQ(guest.send(*epd, &b, 1, SCIF_SEND_BLOCK).status(),
            Status::kNotConnected);
}

// --- the paper's latency anchors -------------------------------------------------

TEST_F(VphiFixture, Vphi1ByteLatencyIs382us) {
  // Fig. 4: virtualized 1-byte send latency is 382 us vs 7 us native.
  auto [guest_epd, card_epd] = guest_pair();
  (void)card_epd;
  auto& guest = bed_.vm(0).guest_scif();

  sim::Actor app{"guest-app"};
  sim::ActorScope scope(app);
  // Warm one request through so backend/loop actors are past their
  // startup skew, then measure.
  std::uint8_t b = 1;
  ASSERT_TRUE(guest.send(guest_epd, &b, 1, SCIF_SEND_BLOCK));

  const Nanos before = app.now();
  ASSERT_TRUE(guest.send(guest_epd, &b, 1, SCIF_SEND_BLOCK));
  const Nanos latency = app.now() - before;
  EXPECT_NEAR(sim::to_micros(latency), 382.0, 1.0);
}

TEST_F(VphiFixture, VirtualizationOverheadIs375usAnd93PercentWaitScheme) {
  // Sec. IV-B: overhead = 382 - 7 = 375 us, of which 93% is the frontend's
  // sleep/wakeup scheme.
  const auto& m = bed_.model();
  const Nanos overhead = m.vphi_ring_roundtrip_ns();
  EXPECT_EQ(overhead, 375'000u);
  const double wait_fraction =
      static_cast<double>(m.guest_irq_handler_ns + m.guest_wakeup_scheme_ns) /
      static_cast<double>(overhead);
  EXPECT_NEAR(wait_fraction, 0.93, 0.01);
}

TEST_F(VphiFixture, LatencyOffsetConstantAcrossSizes) {
  // Fig. 4: the vPHI-vs-host gap stays ~375 us as size grows.
  auto [guest_epd, card_epd] = guest_pair();
  auto& guest = bed_.vm(0).guest_scif();
  const auto& m = bed_.model();

  sim::Actor app{"guest-app"};
  sim::ActorScope scope(app);
  // Warm-up round trip synchronizes this thread's timeline with the
  // backend's event loop (standard before measuring deltas).
  std::uint8_t warm = 0;
  ASSERT_TRUE(guest.send(guest_epd, &warm, 1, SCIF_SEND_BLOCK));
  {
    std::uint8_t sink0;
    ASSERT_TRUE(bed_.card_provider().recv(card_epd, &sink0, 1,
                                          SCIF_RECV_BLOCK));
  }
  for (std::size_t len : {1ull, 4'096ull, 65'536ull}) {
    std::vector<std::uint8_t> buf(len);
    const Nanos before = app.now();
    ASSERT_TRUE(guest.send(guest_epd, buf.data(), len, SCIF_SEND_BLOCK));
    const Nanos vphi_lat = app.now() - before;
    const Nanos host_lat =
        m.host_small_msg_ns() + sim::transfer_time(len, m.scif_stream_bandwidth_Bps);
    const double gap_us = sim::to_micros(vphi_lat - host_lat);
    EXPECT_NEAR(gap_us, 375.0, 10.0) << "size " << len;
    std::vector<std::uint8_t> sink(len);
    ASSERT_TRUE(bed_.card_provider().recv(card_epd, sink.data(), len,
                                          SCIF_RECV_BLOCK));
  }
}

// --- RMA through vPHI ---------------------------------------------------------------

class VphiRmaFixture : public VphiFixture {
 protected:
  void SetUp() override {
    std::tie(guest_epd_, card_epd_) = guest_pair();
    // Card server registers a device-memory window.
    auto dev_off = bed_.card().memory().allocate(kWinBytes);
    ASSERT_TRUE(dev_off);
    dev_base_ = static_cast<std::byte*>(bed_.card().memory().at(*dev_off));
    sim::Rng rng{31};
    rng.fill(dev_base_, kWinBytes);
    auto reg = bed_.card_provider().register_mem(
        card_epd_, dev_base_, kWinBytes, 0, SCIF_PROT_READ | SCIF_PROT_WRITE,
        0);
    ASSERT_TRUE(reg);
    remote_off_ = *reg;

    // Guest registers a user buffer (pinned guest memory).
    auto buf = bed_.vm(0).alloc_user_buffer(kWinBytes);
    ASSERT_TRUE(buf);
    guest_buf_ = static_cast<std::byte*>(*buf);
    auto lreg = bed_.vm(0).guest_scif().register_mem(
        guest_epd_, guest_buf_, kWinBytes, 0, SCIF_PROT_READ | SCIF_PROT_WRITE,
        0);
    ASSERT_TRUE(lreg);
    local_off_ = *lreg;
  }

  static constexpr std::size_t kWinBytes = 8ull << 20;
  int guest_epd_ = -1, card_epd_ = -1;
  std::byte* dev_base_ = nullptr;
  std::byte* guest_buf_ = nullptr;
  scif::RegOffset remote_off_ = 0, local_off_ = 0;
};

TEST_F(VphiRmaFixture, RegisterPinsGuestPages) {
  EXPECT_TRUE(bed_.vm(0).vm().kernel().is_pinned(
      *bed_.vm(0).vm().ram().gpa_of(guest_buf_), kWinBytes));
}

TEST_F(VphiRmaFixture, ReadfromPullsDeviceDataIntoGuest) {
  auto& guest = bed_.vm(0).guest_scif();
  ASSERT_EQ(guest.readfrom(guest_epd_, local_off_, kWinBytes, remote_off_,
                           SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(guest_buf_, dev_base_, kWinBytes), 0);
}

TEST_F(VphiRmaFixture, WritetoPushesGuestDataToDevice) {
  sim::Rng rng{32};
  rng.fill(guest_buf_, kWinBytes);
  auto& guest = bed_.vm(0).guest_scif();
  ASSERT_EQ(guest.writeto(guest_epd_, local_off_, kWinBytes, remote_off_,
                          SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(dev_base_, guest_buf_, kWinBytes), 0);
}

TEST_F(VphiRmaFixture, VreadfromWithUnregisteredGuestBuffer) {
  auto buf = bed_.vm(0).alloc_user_buffer(65'536);
  ASSERT_TRUE(buf);
  auto& guest = bed_.vm(0).guest_scif();
  ASSERT_EQ(guest.vreadfrom(guest_epd_, *buf, 65'536, remote_off_,
                            SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(*buf, dev_base_, 65'536), 0);
}

TEST_F(VphiRmaFixture, UnregisterUnpinsGuestPages) {
  auto& guest = bed_.vm(0).guest_scif();
  const auto gpa = *bed_.vm(0).vm().ram().gpa_of(guest_buf_);
  ASSERT_EQ(guest.unregister_mem(guest_epd_, local_off_, kWinBytes),
            Status::kOk);
  EXPECT_FALSE(bed_.vm(0).vm().kernel().is_pinned(gpa, kWinBytes));
  EXPECT_EQ(guest.readfrom(guest_epd_, local_off_, 1, remote_off_,
                           SCIF_RMA_SYNC),
            Status::kNoSuchEntry);
}

/// Fig. 5 throughput anchors. The same 64 MiB remote read is measured twice:
/// with the bounce-buffer data path (the paper's implementation — the 72%
/// anchor) and with the prebuilt sg-list zero-copy path (this repo's
/// extension, which narrows the gap to the host).
class VphiThroughputFixture : public VphiFixture {
 protected:
  explicit VphiThroughputFixture(bool zero_copy)
      : VphiFixture(make_config(zero_copy)) {}
  explicit VphiThroughputFixture(const TestbedConfig& config)
      : VphiFixture(config) {}

  static TestbedConfig make_config(bool zero_copy) {
    TestbedConfig config;
    config.frontend.zero_copy = zero_copy;
    return config;
  }

  /// One warm 64 MiB registered-window remote read; returns GB/s.
  double measure_big_read_gbps() {
    auto [guest_epd, card_epd] = guest_pair();
    auto& guest = bed_.vm(0).guest_scif();
    sim::Actor app{"guest-app"};
    sim::ActorScope scope(app);

    // A 64 MiB window gets close to the asymptote (the paper's Fig. 5 tops
    // out at similar sizes).
    constexpr std::size_t kBig = 64ull << 20;
    auto dev_off = bed_.card().memory().allocate(kBig);
    EXPECT_TRUE(dev_off);
    auto reg = bed_.card_provider().register_mem(
        card_epd, bed_.card().memory().at(*dev_off), kBig, 0, SCIF_PROT_READ,
        0);
    EXPECT_TRUE(reg);
    auto buf = bed_.vm(0).alloc_user_buffer(kBig);
    EXPECT_TRUE(buf);
    auto lreg = bed_.vm(0).guest_scif().register_mem(
        guest_epd, *buf, kBig, 0, SCIF_PROT_READ | SCIF_PROT_WRITE, 0);
    EXPECT_TRUE(lreg);

    // Warm-up round trip to synchronize with the backend loop's timeline.
    EXPECT_EQ(guest.readfrom(guest_epd, *lreg, 4'096, *reg, SCIF_RMA_SYNC),
              Status::kOk);

    const Nanos before = app.now();
    EXPECT_EQ(guest.readfrom(guest_epd, *lreg, kBig, *reg, SCIF_RMA_SYNC),
              Status::kOk);
    const Nanos elapsed = app.now() - before;
    return static_cast<double>(kBig) / static_cast<double>(elapsed);
  }
};

class VphiBouncePathFixture : public VphiThroughputFixture {
 protected:
  VphiBouncePathFixture() : VphiThroughputFixture(false) {}
};

class VphiZeroCopyFixture : public VphiThroughputFixture {
 protected:
  // The ≥5.5 GB/s acceptance is quoted for the pipelined frontend (Fig. 5's
  // best configuration): window = 8 overlaps the 16 MiB chunk round trips
  // so the prebuilt-sg DMA rate is what shows through.
  VphiZeroCopyFixture() : VphiThroughputFixture(make_zero_copy_config()) {}

  static TestbedConfig make_zero_copy_config() {
    TestbedConfig config = make_config(true);
    config.frontend.pipeline_window = 8;
    return config;
  }
};

TEST_F(VphiBouncePathFixture, GuestRmaThroughputIs72PercentOfHost) {
  // Fig. 5 anchor: vPHI remote read approaches 4.6 GB/s = 72% of the
  // host's 6.4 GB/s as size grows. The gap comes from per-page
  // scatter-gather DMA on the two-level-translated pinned guest memory.
  const double gbps = measure_big_read_gbps();
  EXPECT_NEAR(gbps, 4.5, 0.2) << "asymptote 4.6 GB/s, minus ring overhead";
  // Ratio against the host's 6.4 GB/s (established by the ScifRmaFixture
  // anchor under the same model) is the paper's 72%.
  EXPECT_NEAR(gbps / 6.4, 0.72, 0.04);
}

TEST_F(VphiZeroCopyFixture, PrebuiltSgListBeatsThePaperAnchor) {
  // With the sg-list built once at scif_register time the backend programs
  // the DMA directly from the prebuilt list — no per-transfer pin-walk —
  // and the remote read clears 5.5 GB/s, still under the host's 6.4.
  const double gbps = measure_big_read_gbps();
  EXPECT_GE(gbps, 5.5);
  EXPECT_LT(gbps, 6.4);
}

TEST_F(VphiRmaFixture, FencesThroughTheRing) {
  auto& guest = bed_.vm(0).guest_scif();
  ASSERT_EQ(guest.readfrom(guest_epd_, local_off_, kWinBytes, remote_off_, 0),
            Status::kOk);
  auto mark = guest.fence_mark(guest_epd_, scif::SCIF_FENCE_INIT_SELF);
  ASSERT_TRUE(mark);
  ASSERT_EQ(guest.fence_wait(guest_epd_, *mark), Status::kOk);
  EXPECT_EQ(std::memcmp(guest_buf_, dev_base_, kWinBytes), 0);
  ASSERT_EQ(guest.fence_signal(guest_epd_, local_off_, 0x77, remote_off_, 0x88,
                               scif::SCIF_SIGNAL_LOCAL |
                                   scif::SCIF_SIGNAL_REMOTE),
            Status::kOk);
  std::uint64_t lval = 0;
  std::memcpy(&lval, guest_buf_, sizeof(lval));
  EXPECT_EQ(lval, 0x77u);
}

// --- mmap through the two-level VM_PFNPHI path --------------------------------------

TEST_F(VphiRmaFixture, MmapInstallsPfnphiVmaAndFaultsResolve) {
  auto& guest = bed_.vm(0).guest_scif();
  auto mapping = guest.mmap(guest_epd_, remote_off_, 16'384, SCIF_PROT_READ);
  ASSERT_TRUE(mapping);
  EXPECT_EQ(bed_.vm(0).vm().kernel().vmas().count(), 1u);

  std::vector<std::byte> buf(16'384);
  const auto faults_before = vm0_["vphi.hv.ept_faults"];
  ASSERT_EQ(guest.map_read(*mapping, 0, buf.data(), buf.size()), Status::kOk);
  EXPECT_EQ(std::memcmp(buf.data(), dev_base_, buf.size()), 0);
  EXPECT_EQ(vm0_["vphi.hv.ept_faults"] - faults_before, 4u)
      << "one EPT fault per touched page";

  // Second read: no further faults.
  ASSERT_EQ(guest.map_read(*mapping, 0, buf.data(), buf.size()), Status::kOk);
  EXPECT_EQ(vm0_["vphi.hv.ept_faults"] - faults_before, 4u);

  ASSERT_EQ(guest.munmap(*mapping), Status::kOk);
  EXPECT_EQ(bed_.vm(0).vm().kernel().vmas().count(), 0u);
}

TEST_F(VphiRmaFixture, MmapWriteReachesDeviceMemory) {
  auto& guest = bed_.vm(0).guest_scif();
  auto mapping = guest.mmap(guest_epd_, remote_off_, 4'096,
                            SCIF_PROT_READ | SCIF_PROT_WRITE);
  ASSERT_TRUE(mapping);
  const char msg[] = "store through VM_PFNPHI";
  ASSERT_EQ(guest.map_write(*mapping, 64, msg, sizeof(msg)), Status::kOk);
  EXPECT_EQ(std::memcmp(dev_base_ + 64, msg, sizeof(msg)), 0);
  ASSERT_EQ(guest.munmap(*mapping), Status::kOk);
}

TEST_F(VphiRmaFixture, MmapKeepsHostWindowBusy) {
  auto& guest = bed_.vm(0).guest_scif();
  auto mapping = guest.mmap(guest_epd_, remote_off_, 4'096, SCIF_PROT_READ);
  ASSERT_TRUE(mapping);
  EXPECT_EQ(bed_.card_provider().unregister_mem(card_epd_, remote_off_,
                                                kWinBytes),
            Status::kBusy);
  ASSERT_EQ(guest.munmap(*mapping), Status::kOk);
  EXPECT_EQ(bed_.card_provider().unregister_mem(card_epd_, remote_off_,
                                                kWinBytes),
            Status::kOk);
}

// --- poll / node ids / card info ------------------------------------------------------

TEST_F(VphiFixture, GuestPollSeesReadiness) {
  auto [guest_epd, card_epd] = guest_pair();
  auto& guest = bed_.vm(0).guest_scif();

  scif::PollEpd p{guest_epd, scif::SCIF_POLLIN, 0};
  auto n = guest.poll(&p, 1, 0);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 0);

  std::uint8_t b = 9;
  ASSERT_TRUE(bed_.card_provider().send(card_epd, &b, 1, SCIF_SEND_BLOCK));
  n = guest.poll(&p, 1, -1);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(p.revents & scif::SCIF_POLLIN);
}

TEST_F(VphiFixture, GuestNodeIdsMatchHostView) {
  auto ids = bed_.vm(0).guest_scif().get_node_ids();
  ASSERT_TRUE(ids);
  EXPECT_EQ(ids->total, 2);
  EXPECT_EQ(ids->self, scif::kHostNode)
      << "the VM is presented the host's identity, as vPHI redirects";
}

TEST_F(VphiFixture, SysfsInfoForwardedIntoGuest) {
  // Sec. III "Implementation details": the backend exposes the host's
  // sysfs card info so MPSS tools work inside the VM.
  auto info = bed_.vm(0).guest_scif().card_info(0);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->get("family").value(), "Knights Corner");
  EXPECT_EQ(info->get("sku").value(), "3120P");
  EXPECT_EQ(info->get_u64("cores_count").value(), 57u);
  EXPECT_EQ(bed_.vm(0).guest_scif().card_info(9).status(), Status::kNoDevice);
}

// --- waiting schemes (ablation plumbing) --------------------------------------------

TEST(VphiWaitSchemes, PollingBeatsInterruptLatency) {
  TestbedConfig interrupt_config;
  interrupt_config.frontend.scheme = WaitScheme::kInterrupt;
  TestbedConfig polling_config;
  polling_config.frontend.scheme = WaitScheme::kPolling;

  auto measure = [](Testbed& bed) {
    auto& card = bed.card_provider();
    auto lep = card.open();
    EXPECT_TRUE(card.bind(*lep, kPort));
    EXPECT_TRUE(sim::ok(card.listen(*lep, 4)));
    auto server = std::async(std::launch::async, [&] {
      sim::Actor a{"srv"};
      sim::ActorScope scope(a);
      return card.accept(*lep, SCIF_ACCEPT_SYNC)->epd;
    });
    auto& guest = bed.vm(0).guest_scif();
    auto epd = guest.open();
    EXPECT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), kPort})));
    server.get();

    sim::Actor app{"app"};
    sim::ActorScope scope(app);
    std::uint8_t b = 0;
    EXPECT_TRUE(guest.send(*epd, &b, 1, SCIF_SEND_BLOCK));
    const Nanos before = app.now();
    EXPECT_TRUE(guest.send(*epd, &b, 1, SCIF_SEND_BLOCK));
    return app.now() - before;
  };

  // One bed at a time: both name their VM vm0, and the registry reads a
  // VM's counts by that label.
  Nanos t_int = 0;
  {
    Testbed interrupt_bed{interrupt_config};
    t_int = measure(interrupt_bed);
  }
  const LabelDeltas vm0{"vm=vm0"};
  Testbed polling_bed{polling_config};
  const Nanos t_poll = measure(polling_bed);
  EXPECT_GT(t_int, t_poll) << "polling avoids the 349 us wakeup scheme";
  EXPECT_LT(sim::to_micros(t_poll), 60.0)
      << "polled latency approaches native";
  EXPECT_GT(vm0["vphi.fe.poll_cpu_burn_ns"], 0u)
      << "...at the price of burned vCPU";
  EXPECT_EQ(vm0["vphi.fe.interrupt_waits"], 0u);
}

// A polled wait is charged the probes a real spin makes up to the used
// entry's simulated time, however long the host takes to produce it: a
// send queued behind a blocked QEMU loop costs the guest exactly what an
// unblocked one does, in latency and in burned vCPU.
TEST(VphiWaitSchemes, PolledLatencyIgnoresHostDelay) {
  TestbedConfig config;
  config.frontend.scheme = WaitScheme::kPolling;
  Testbed bed{config};
  auto& card = bed.card_provider();
  auto lep = card.open();
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 4)));
  auto server = std::async(std::launch::async, [&] {
    sim::Actor a{"srv"};
    sim::ActorScope scope(a);
    return card.accept(*lep, SCIF_ACCEPT_SYNC)->epd;
  });
  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), kPort})));
  server.get();
  auto& fe = bed.vm(0).frontend();

  struct Cost {
    Nanos latency = 0;
    Nanos burn = 0;
  };
  auto send_byte = [&](sim::Actor& vcpu) {
    std::uint8_t b = 0;
    const auto burn = [] {
      return counter_at("vphi.fe.poll_cpu_burn_ns", "vm=vm0");
    };
    const Nanos burn_before = burn();
    const Nanos before = vcpu.now();
    EXPECT_TRUE(guest.send(*epd, &b, 1, SCIF_SEND_BLOCK));
    return Cost{vcpu.now() - before, burn() - burn_before};
  };

  sim::Actor app{"app", sim::Actor::AtNow{}};
  sim::ActorScope scope(app);
  send_byte(app);  // warm-up
  const Cost unblocked = send_byte(app);

  // Hold the QEMU loop: the send's handler queues behind this one.
  std::promise<void> release;
  bed.vm(0).vm().qemu().post(
      [gate = release.get_future().share()](sim::Actor&) { gate.wait(); });
  auto delayed_send = std::async(std::launch::async, [&, start = app.now()] {
    sim::Actor vcpu{"vcpu", start};
    sim::ActorScope vcpu_scope(vcpu);
    return send_byte(vcpu);
  });
  while (fe.pending_requests() == 0) std::this_thread::yield();
  for (int i = 0; i < 5'000; ++i) std::this_thread::yield();
  release.set_value();
  const Cost delayed = delayed_send.get();

  EXPECT_GT(unblocked.burn, 0);
  EXPECT_EQ(delayed.latency, unblocked.latency);
  EXPECT_EQ(delayed.burn, unblocked.burn);
}

TEST(VphiWaitSchemes, HybridSwitchesOnThreshold) {
  TestbedConfig config;
  config.frontend.scheme = WaitScheme::kHybrid;
  Testbed bed{config};

  auto& card = bed.card_provider();
  auto lep = card.open();
  ASSERT_TRUE(card.bind(*lep, kPort));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 4)));
  auto server = std::async(std::launch::async, [&] {
    sim::Actor a{"srv"};
    sim::ActorScope scope(a);
    return card.accept(*lep, SCIF_ACCEPT_SYNC)->epd;
  });
  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), kPort})));
  const int card_epd = server.get();

  const LabelDeltas vm0{"vm=vm0"};
  std::vector<std::uint8_t> small(1'024), large(64 * 1024);
  static_assert(1'024 < FrontendDriver::kHybridThreshold &&
                64 * 1024 >= FrontendDriver::kHybridThreshold);
  ASSERT_TRUE(guest.send(*epd, small.data(), small.size(), SCIF_SEND_BLOCK));
  EXPECT_EQ(vm0["vphi.fe.polled_waits"], 1u) << "small payload polls";

  const auto interrupts_before = vm0["vphi.fe.interrupt_waits"];
  ASSERT_TRUE(guest.send(*epd, large.data(), large.size(), SCIF_SEND_BLOCK));
  EXPECT_EQ(vm0["vphi.fe.interrupt_waits"] - interrupts_before, 1u)
      << "large payload sleeps";

  std::vector<std::uint8_t> sink(small.size() + large.size());
  ASSERT_TRUE(card.recv(card_epd, sink.data(), sink.size(), SCIF_RECV_BLOCK));
}

// --- multi-VM sharing: the headline capability ---------------------------------------

TEST(VphiSharing, TwoVmsShareOneCardConcurrently) {
  TestbedConfig config;
  config.num_vms = 2;
  const LabelDeltas counts0{"vm=vm0"};
  const LabelDeltas counts1{"vm=vm1"};
  Testbed bed{config};

  // One listener per VM client.
  auto& card = bed.card_provider();
  auto run_vm = [&](std::size_t vm_index, scif::Port port) {
    auto lep = card.open();
    ASSERT_TRUE(lep);
    ASSERT_TRUE(card.bind(*lep, port));
    ASSERT_TRUE(sim::ok(card.listen(*lep, 4)));
    auto server = std::async(std::launch::async, [&card, lep = *lep] {
      sim::Actor a{"srv"};
      sim::ActorScope scope(a);
      auto acc = card.accept(lep, SCIF_ACCEPT_SYNC);
      ASSERT_TRUE(acc);
      std::vector<std::uint8_t> got(100'000);
      auto r = card.recv(acc->epd, got.data(), got.size(), SCIF_RECV_BLOCK);
      ASSERT_TRUE(r);
      EXPECT_EQ(*r, got.size());
    });

    sim::Actor app{"vm" + std::to_string(vm_index) + "-app"};
    sim::ActorScope scope(app);
    auto& guest = bed.vm(vm_index).guest_scif();
    auto epd = guest.open();
    ASSERT_TRUE(epd);
    ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), port})));
    std::vector<std::uint8_t> msg(100'000);
    sim::Rng rng{vm_index + 1};
    rng.fill(msg.data(), msg.size());
    auto sent = guest.send(*epd, msg.data(), msg.size(), SCIF_SEND_BLOCK);
    ASSERT_TRUE(sent);
    server.get();
  };

  std::thread vm0([&] { run_vm(0, 700); });
  std::thread vm1([&] { run_vm(1, 701); });
  vm0.join();
  vm1.join();

  // Each VM has its own backend = its own host process identity, and
  // the registry reads each one's traffic under its own label.
  const auto handled = [](const LabelDeltas& vm) {
    return vm["vphi.be.requests.worker"] + vm["vphi.be.requests.blocking"];
  };
  EXPECT_GE(handled(counts0), 3u);
  EXPECT_GE(handled(counts1), 3u);
  EXPECT_EQ(counts0["vphi.fe.requests"], handled(counts0));
}

TEST(VphiSharing, TwoGuestThreadsInOneVmNeedWorkerBackend) {
  // Design hazard the reproduction surfaces: with the paper's default
  // policy, data transfers execute *blocking* on the VM's QEMU event loop.
  // Two threads inside one VM that wait on each other (the receiver
  // blocked in recv while the sender's send sits queued behind that very
  // recv handler) deadlock — faithfully to the paper's design. Routing
  // transfers to worker threads (the paper's non-blocking mode) resolves
  // it; this test runs the exact mutually-dependent exchange under the
  // all-worker policy.
  TestbedConfig config;
  config.backend_policy.classify = BackendPolicy::all_worker();
  Testbed bed{config};
  auto& guest = bed.vm(0).guest_scif();
  constexpr scif::Port kPeerPort = 5'600;

  // A guest listener lives on the host node: the backend's process.
  auto ids = guest.get_node_ids();
  ASSERT_TRUE(ids);
  auto lep = guest.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(guest.bind(*lep, kPeerPort));
  ASSERT_TRUE(sim::ok(guest.listen(*lep, 1)));

  const auto recvs = [] { return counter_at("vphi.be.op.recv.requests", "vm=vm0"); };
  const auto recvs_before = recvs();
  auto receiver = std::async(std::launch::async, [&, node = ids->self] {
    sim::Actor a{"receiver", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto epd = guest.open();
    if (!epd || !sim::ok(guest.connect(*epd, PortId{node, kPeerPort}))) {
      return -1;
    }
    int v = 0;
    auto got = guest.recv(*epd, &v, sizeof(v), SCIF_RECV_BLOCK);
    guest.close(*epd);
    return got && *got == sizeof(v) ? v : -1;
  });

  sim::Actor sender{"sender", sim::Actor::AtNow{}};
  sim::ActorScope scope(sender);
  auto conn = guest.accept(*lep, SCIF_ACCEPT_SYNC);
  EXPECT_TRUE(conn);
  if (conn) {
    // The receiver's recv reaches the backend before the send is posted.
    while (recvs() == recvs_before) {
      std::this_thread::yield();
    }
    const int v = 7;
    auto sent = guest.send(conn->epd, &v, sizeof(v), SCIF_SEND_BLOCK);
    EXPECT_TRUE(sent && *sent == sizeof(v));
  }
  EXPECT_EQ(receiver.get(), 7);
  if (conn) guest.close(conn->epd);
  guest.close(*lep);
}

}  // namespace
}  // namespace vphi::core
