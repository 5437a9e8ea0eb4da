// Edge-case and property tests across the vPHI stack: chunk boundaries,
// probe/negotiation failures, poll sets, peer-initiated fences, recv
// chunking, mmap corner cases, the C API over the guest provider, the
// mic_info tool, and a randomized full-stack stream property sweep.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "metric_reads.hpp"
#include "scif/api.hpp"
#include "scif/fabric.hpp"
#include "sim/actor.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "tools/mic_info.hpp"
#include "tools/testbed.hpp"
#include "virtio/device.hpp"

namespace vphi::core {
namespace {

using scif::PortId;
using scif::SCIF_ACCEPT_SYNC;
using scif::SCIF_PROT_READ;
using scif::SCIF_PROT_WRITE;
using scif::SCIF_RECV_BLOCK;
using scif::SCIF_RMA_SYNC;
using scif::SCIF_SEND_BLOCK;
using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

class EdgeFixture : public ::testing::Test {
 protected:
  EdgeFixture() : bed_(TestbedConfig{}) {}

  std::pair<int, int> guest_pair(scif::Port port) {
    auto lep = bed_.card_provider().open();
    EXPECT_TRUE(lep);
    EXPECT_TRUE(bed_.card_provider().bind(*lep, port));
    EXPECT_TRUE(sim::ok(bed_.card_provider().listen(*lep, 4)));
    auto server = std::async(std::launch::async, [this, lep = *lep] {
      sim::Actor a{"srv", sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      auto acc = bed_.card_provider().accept(lep, SCIF_ACCEPT_SYNC);
      return acc ? acc->epd : -1;
    });
    auto& guest = bed_.vm(0).guest_scif();
    auto epd = guest.open();
    EXPECT_TRUE(epd);
    EXPECT_TRUE(sim::ok(guest.connect(*epd, PortId{bed_.card_node(), port})));
    return {*epd, server.get()};
  }

  /// vm0's counts since this fixture was built; made before bed_.
  const LabelDeltas vm0_{"vm=vm0"};
  Testbed bed_;
};

// --- chunk boundaries ---------------------------------------------------------

class ChunkBoundaryTest
    : public EdgeFixture,
      public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ChunkBoundaryTest, SendSizesAroundKmallocCap) {
  // Property: any size splits into ceil(size / 4 MiB) ring transactions
  // and arrives byte-exact.
  const std::size_t size = GetParam();
  auto [guest_epd, card_epd] = guest_pair(6'000);
  auto& guest = bed_.vm(0).guest_scif();

  std::vector<std::uint8_t> msg(size);
  sim::Rng rng{size};
  rng.fill(msg.data(), msg.size());

  const auto sends_before = vm0_["vphi.be.op.send.requests"];
  auto receiver = std::async(std::launch::async, [&, card_epd = card_epd] {
    sim::Actor a{"rx", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    std::vector<std::uint8_t> got(size);
    auto r = bed_.card_provider().recv(card_epd, got.data(), size,
                                       SCIF_RECV_BLOCK);
    EXPECT_TRUE(r);
    return got;
  });
  auto sent = guest.send(guest_epd, msg.data(), size, SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, size);
  const auto expected_chunks =
      (size + hv::kKmallocMaxSize - 1) / hv::kKmallocMaxSize;
  EXPECT_EQ(vm0_["vphi.be.op.send.requests"] - sends_before,
            expected_chunks);
  EXPECT_EQ(receiver.get(), msg);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChunkBoundaryTest,
    ::testing::Values(1, 4'096, (4ull << 20) - 1, 4ull << 20,
                      (4ull << 20) + 1, (8ull << 20) + 3, 12ull << 20));

TEST_F(EdgeFixture, RecvChunksLargeRequests) {
  auto [guest_epd, card_epd] = guest_pair(6'010);
  auto& guest = bed_.vm(0).guest_scif();
  constexpr std::size_t kSize = 9ull << 20;  // 3 chunks (4+4+1)

  std::vector<std::uint8_t> msg(kSize, 0xA5);
  auto sender = std::async(std::launch::async, [&, card_epd = card_epd] {
    sim::Actor a{"tx", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto r = bed_.card_provider().send(card_epd, msg.data(), kSize,
                                       SCIF_SEND_BLOCK);
    EXPECT_TRUE(r);
  });
  const auto recvs_before = vm0_["vphi.be.op.recv.requests"];
  std::vector<std::uint8_t> got(kSize);
  auto r = guest.recv(guest_epd, got.data(), kSize, SCIF_RECV_BLOCK);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, kSize);
  EXPECT_EQ(vm0_["vphi.be.op.recv.requests"] - recvs_before, 3u);
  EXPECT_EQ(got, msg);
  sender.get();
}

// --- virtio probe / negotiation failure -----------------------------------------

TEST(VphiProbe, TransactBeforeProbeFails) {
  hv::Vm vm{{.name = "bare"}, sim::CostModel::paper()};
  FrontendDriver frontend{vm};
  sim::Actor a{"app"};
  FrontendDriver::TransactArgs args;
  args.header.op = Op::kOpen;
  EXPECT_EQ(frontend.transact(a, args).status(), Status::kNoDevice);
}

TEST(VphiProbe, ProbeNegotiatesFeatures) {
  hv::Vm vm{{.name = "probing"}, sim::CostModel::paper()};
  FrontendDriver frontend{vm};
  EXPECT_EQ(frontend.probe(), Status::kOk);
  EXPECT_TRUE(vm.device_status().has(virtio::VIRTIO_STATUS_DRIVER_OK));
  EXPECT_TRUE(vm.device_status().accepted_features() & virtio::VPHI_F_SCIF);
}

// --- poll sets through the ring ----------------------------------------------

TEST_F(EdgeFixture, GuestPollMultipleEndpoints) {
  auto [g1, c1] = guest_pair(6'020);
  auto [g2, c2] = guest_pair(6'021);
  auto& guest = bed_.vm(0).guest_scif();

  std::uint8_t b = 1;
  ASSERT_TRUE(bed_.card_provider().send(c2, &b, 1, SCIF_SEND_BLOCK));

  scif::PollEpd set[2] = {{g1, scif::SCIF_POLLIN, 0},
                          {g2, scif::SCIF_POLLIN, 0}};
  auto n = guest.poll(set, 2, -1);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(set[0].revents, 0);
  EXPECT_TRUE(set[1].revents & scif::SCIF_POLLIN);
  (void)c1;
}

TEST_F(EdgeFixture, GuestPollInvalidArguments) {
  auto& guest = bed_.vm(0).guest_scif();
  EXPECT_EQ(guest.poll(nullptr, 1, 0).status(), Status::kInvalidArgument);
  scif::PollEpd p{1, scif::SCIF_POLLIN, 0};
  EXPECT_EQ(guest.poll(&p, 0, 0).status(), Status::kInvalidArgument);
}

// --- fences initiated by the peer ------------------------------------------------

TEST_F(EdgeFixture, FenceInitPeerCoversRemoteRma) {
  auto [guest_epd, card_epd] = guest_pair(6'030);
  auto& guest = bed_.vm(0).guest_scif();
  auto& card = bed_.card_provider();

  // Guest window (pinned guest memory) the card will write into.
  constexpr std::size_t kBytes = 1 << 20;
  auto buf = bed_.vm(0).alloc_user_buffer(kBytes);
  ASSERT_TRUE(buf);
  auto greg = guest.register_mem(guest_epd, *buf, kBytes, 0,
                                 SCIF_PROT_READ | SCIF_PROT_WRITE,
                                 scif::SCIF_MAP_FIXED);
  ASSERT_TRUE(greg);

  // Card-side source window + async writeto into the guest.
  std::vector<std::byte> src(kBytes, std::byte{0x3C});
  auto creg = card.register_mem(card_epd, src.data(), kBytes, 0,
                                SCIF_PROT_READ, 0);
  ASSERT_TRUE(creg);
  ASSERT_EQ(card.writeto(card_epd, *creg, kBytes, 0, 0), Status::kOk);

  // The guest fences on *peer-initiated* RMAs.
  auto mark = guest.fence_mark(guest_epd, scif::SCIF_FENCE_INIT_PEER);
  ASSERT_TRUE(mark);
  ASSERT_EQ(guest.fence_wait(guest_epd, *mark), Status::kOk);
  EXPECT_EQ(std::memcmp(*buf, src.data(), kBytes), 0);
}

// --- mmap corner cases ------------------------------------------------------------

TEST_F(EdgeFixture, MmapAcrossWindowBoundaryUnsupported) {
  auto [guest_epd, card_epd] = guest_pair(6'040);
  auto& card = bed_.card_provider();
  std::vector<std::byte> w1(4'096), w2(4'096);
  ASSERT_TRUE(card.register_mem(card_epd, w1.data(), 4'096, 0x10000,
                                SCIF_PROT_READ, scif::SCIF_MAP_FIXED));
  ASSERT_TRUE(card.register_mem(card_epd, w2.data(), 4'096, 0x11000,
                                SCIF_PROT_READ, scif::SCIF_MAP_FIXED));
  auto& guest = bed_.vm(0).guest_scif();
  // RMA across the boundary works (span walk)...
  auto sink = bed_.vm(0).alloc_user_buffer(8'192);
  ASSERT_TRUE(sink);
  EXPECT_EQ(guest.vreadfrom(guest_epd, *sink, 8'192, 0x10000, SCIF_RMA_SYNC),
            Status::kOk);
  // ...but a single mmap cannot alias two disjoint backings.
  EXPECT_EQ(guest.mmap(guest_epd, 0x10000, 8'192, SCIF_PROT_READ).status(),
            Status::kNotSupported);
}

TEST_F(EdgeFixture, MunmapUnknownCookieRejected) {
  auto& guest = bed_.vm(0).guest_scif();
  scif::Mapping bogus;
  bogus.cookie = 424'242;
  bogus.data = reinterpret_cast<std::byte*>(0x1);
  bogus.len = 4'096;
  EXPECT_EQ(guest.munmap(bogus), Status::kInvalidArgument);
}

// --- the C API over the guest provider ------------------------------------------

TEST_F(EdgeFixture, CStyleApiWorksInsideTheVm) {
  // The full libscif shim bound to the virtualized provider: open, connect,
  // register, RMA, fence, mmap — no call changes relative to the host.
  auto lep = bed_.card_provider().open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(bed_.card_provider().bind(*lep, 6'050));
  ASSERT_TRUE(sim::ok(bed_.card_provider().listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&] {
    sim::Actor a{"srv", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = bed_.card_provider().accept(*lep, SCIF_ACCEPT_SYNC);
    ASSERT_TRUE(acc);
    // Register 64 KiB of device memory at fixed offset 0.
    auto dev = bed_.card().memory().allocate(65'536);
    ASSERT_TRUE(dev);
    std::memset(bed_.card().memory().at(*dev), 0x77, 65'536);
    ASSERT_TRUE(bed_.card_provider().register_mem(
        acc->epd, bed_.card().memory().at(*dev), 65'536, 0,
        SCIF_PROT_READ | SCIF_PROT_WRITE, scif::SCIF_MAP_FIXED));
    std::uint8_t ready = 1;
    ASSERT_TRUE(bed_.card_provider().send(acc->epd, &ready, 1,
                                          SCIF_SEND_BLOCK));
    std::uint8_t bye;
    bed_.card_provider().recv(acc->epd, &bye, 1, SCIF_RECV_BLOCK);
  });

  sim::Actor app{"guest-app", sim::Actor::AtNow{}};
  sim::ActorScope scope(app);
  scif::api::ProcessContext ctx(bed_.vm(0).guest_scif());

  const auto epd = scif::api::scif_open();
  ASSERT_GE(epd, 0);
  const PortId dst{bed_.card_node(), 6'050};
  ASSERT_EQ(scif::api::scif_connect(epd, &dst), 0);
  std::uint8_t ready = 0;
  ASSERT_EQ(scif::api::scif_recv(epd, &ready, 1, SCIF_RECV_BLOCK), 1);

  // vreadfrom pulls the 0x77 pattern.
  auto buf = bed_.vm(0).alloc_user_buffer(65'536);
  ASSERT_TRUE(buf);
  ASSERT_EQ(scif::api::scif_vreadfrom(epd, *buf, 65'536, 0, SCIF_RMA_SYNC), 0);
  EXPECT_EQ(static_cast<std::uint8_t*>(*buf)[12'345], 0x77);

  // Register + fence + mmap through the shim.
  ASSERT_GE(scif::api::scif_register(epd, *buf, 65'536, 0,
                                     SCIF_PROT_READ | SCIF_PROT_WRITE, 0),
            0);
  int mark = -1;
  ASSERT_EQ(scif::api::scif_fence_mark(epd, scif::SCIF_FENCE_INIT_SELF,
                                       &mark),
            0);
  ASSERT_EQ(scif::api::scif_fence_wait(epd, mark), 0);

  scif::Mapping mapping;
  ASSERT_EQ(scif::api::scif_mmap(epd, 0, 4'096, SCIF_PROT_READ, &mapping), 0);
  EXPECT_TRUE(mapping.valid());
  ASSERT_EQ(scif::api::scif_munmap(&mapping), 0);

  std::uint8_t bye = 0;
  scif::api::scif_send(epd, &bye, 1, SCIF_SEND_BLOCK);
  ASSERT_EQ(scif::api::scif_close(epd), 0);
  server.get();
}

// --- mic_info tool --------------------------------------------------------------

TEST_F(EdgeFixture, MicInfoIdenticalHostAndGuest) {
  const std::string host_view = tools::render_mic_info(bed_.host_provider());
  const std::string guest_view =
      tools::render_mic_info(bed_.vm(0).guest_scif());
  EXPECT_FALSE(host_view.empty());
  EXPECT_EQ(host_view, guest_view)
      << "the backend must forward the host's sysfs view verbatim";
  EXPECT_NE(host_view.find("family: Knights Corner"), std::string::npos);
}

// --- randomized full-stack stream property ----------------------------------------

class StackStreamTest : public EdgeFixture,
                        public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(StackStreamTest, RandomMessageSequencesArriveExactly) {
  // Property: an arbitrary sequence of variable-size guest sends is
  // reassembled byte-exactly by the card, regardless of how the vPHI path
  // chunks and the stream segments them.
  const std::uint64_t seed = GetParam();
  auto [guest_epd, card_epd] =
      guest_pair(static_cast<scif::Port>(6'100 + seed));
  auto& guest = bed_.vm(0).guest_scif();

  sim::Rng rng{seed};
  const int messages = 3 + static_cast<int>(rng.below(5));
  std::vector<std::vector<std::uint8_t>> sent;
  std::size_t total = 0;
  for (int i = 0; i < messages; ++i) {
    std::vector<std::uint8_t> msg(1 + rng.below(300'000));
    rng.fill(msg.data(), msg.size());
    total += msg.size();
    sent.push_back(std::move(msg));
  }

  auto receiver = std::async(std::launch::async, [&, card_epd = card_epd] {
    sim::Actor a{"rx", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    std::vector<std::uint8_t> got(total);
    auto r = bed_.card_provider().recv(card_epd, got.data(), total,
                                       SCIF_RECV_BLOCK);
    EXPECT_TRUE(r);
    return got;
  });

  std::vector<std::uint8_t> concatenated;
  for (const auto& msg : sent) {
    auto r = guest.send(guest_epd, msg.data(), msg.size(), SCIF_SEND_BLOCK);
    ASSERT_TRUE(r);
    concatenated.insert(concatenated.end(), msg.begin(), msg.end());
  }
  EXPECT_EQ(receiver.get(), concatenated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackStreamTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- transport trust regressions -------------------------------------------
//
// One regression per guest-trust bug: each of these used to corrupt state,
// overread memory or hang before the backend validator / frontend response
// checks / bounded ring walk existed.

/// Post a hand-crafted chain straight on the ring (no frontend driver, like
/// a hostile guest would) and spin for the backend's response.
ResponseHeader raw_roundtrip(hv::Vm& vm, const RequestHeader& req,
                             std::size_t out_seg_len) {
  auto& ram = vm.ram();
  auto req_gpa = ram.kmalloc(sizeof(RequestHeader));
  auto resp_gpa = ram.kmalloc(sizeof(ResponseHeader));
  EXPECT_TRUE(req_gpa && resp_gpa);
  std::memcpy(ram.translate(*req_gpa, sizeof(RequestHeader)), &req,
              sizeof(RequestHeader));

  virtio::BufferRef out[2] = {
      {*req_gpa, static_cast<std::uint32_t>(sizeof(RequestHeader))}, {0, 0}};
  std::size_t n_out = 1;
  std::uint64_t out_gpa = 0;
  if (out_seg_len > 0) {
    auto gpa = ram.kmalloc(out_seg_len);
    EXPECT_TRUE(gpa);
    out_gpa = *gpa;
    out[1] = {out_gpa, static_cast<std::uint32_t>(out_seg_len)};
    n_out = 2;
  }
  virtio::BufferRef in[1] = {
      {*resp_gpa, static_cast<std::uint32_t>(sizeof(ResponseHeader))}};

  sim::Actor a{"hostile-guest"};
  EXPECT_TRUE(vm.vq().add_buf({out, n_out}, {in, 1}));
  vm.vq().kick(a.now());

  for (;;) {
    if (auto used = vm.vq().get_used()) {
      EXPECT_GE(used->len, sizeof(ResponseHeader));
      ResponseHeader resp;
      std::memcpy(&resp, ram.translate(*resp_gpa, sizeof(ResponseHeader)),
                  sizeof(ResponseHeader));
      ram.kfree(*req_gpa);
      ram.kfree(*resp_gpa);
      if (out_seg_len > 0) ram.kfree(out_gpa);
      return resp;
    }
    std::this_thread::yield();
  }
}

TEST(BackendValidation, OverclaimedPayloadLenRejected) {
  // Regression: the backend discarded the readable segment's length, so a
  // header claiming payload_len = 8 KiB over a 4 KiB segment made kSend
  // read 4 KiB of unrelated host memory.
  const sim::CostModel model = sim::CostModel::paper();
  const LabelDeltas counts{"vm=lying-guest"};
  hv::Vm vm{{.name = "lying-guest"}, model};
  scif::Fabric fabric{model};
  BackendDevice backend{vm, fabric};
  backend.start();

  RequestHeader req;
  req.op = Op::kSend;
  req.epd = 0;
  req.payload_len = 8'192;  // twice what the chain actually carries
  const ResponseHeader resp = raw_roundtrip(vm, req, 4'096);
  EXPECT_EQ(response_status(resp), Status::kBadAddress);
  EXPECT_GE(counts["vphi.be.validation_failures"], 1u);
  backend.stop();
}

TEST(BackendValidation, PollCountOverflowRejected) {
  // A poll request whose nepds * sizeof(PollEpd) overflows 32-bit math used
  // to slip past the per-op bounds check.
  const sim::CostModel model = sim::CostModel::paper();
  const LabelDeltas counts{"vm=poll-bomb"};
  hv::Vm vm{{.name = "poll-bomb"}, model};
  scif::Fabric fabric{model};
  BackendDevice backend{vm, fabric};
  backend.start();

  RequestHeader req;
  req.op = Op::kPoll;
  req.arg0 = (1ull << 62);  // absurd nepds
  req.payload_len = 4'096;
  const ResponseHeader resp = raw_roundtrip(vm, req, 4'096);
  EXPECT_EQ(response_status(resp), Status::kInvalidArgument);
  EXPECT_GE(counts["vphi.be.validation_failures"], 1u);
  backend.stop();
}

class TrustRegression : public EdgeFixture {
 protected:
  void TearDown() override { sim::fault_injector().disarm_all(); }
};

TEST_F(TrustRegression, ShortUsedWriteSurfacesIoError) {
  // Regression: the frontend ignored used.len entirely and parsed whatever
  // bytes sat in the response slot — here, uninitialized kmalloc memory.
  sim::fault_injector().arm_nth(sim::FaultSite::kShortUsedWrite, 1);
  EXPECT_EQ(bed_.vm(0).guest_scif().get_node_ids().status(),
            Status::kIoError);
  EXPECT_GE(vm0_["vphi.fe.protocol_errors"], 1u);
}

TEST_F(TrustRegression, CyclicChainAnsweredInsteadOfHanging) {
  // Regression: the descriptor walk followed `next` unboundedly, so a chain
  // whose terminator looped back to its head spun the service thread
  // forever. Now it is poisoned, answered with kIoError, and recycled.
  sim::fault_injector().arm_nth(sim::FaultSite::kCycleChain, 1);
  auto& guest = bed_.vm(0).guest_scif();
  EXPECT_EQ(guest.open().status(), Status::kIoError);
  EXPECT_GE(vm0_["vphi.ring.chains_poisoned"], 1u);
  EXPECT_GE(vm0_["vphi.be.poisoned_chains"], 1u);
  // The transport survives the attack.
  EXPECT_TRUE(guest.open());
}

TEST_F(TrustRegression, OversizedSendRetRejected) {
  // Regression: send() added the backend's ret0 to its running total
  // unclamped, so a corrupted "bytes sent" larger than the chunk made the
  // byte-walk lie to the caller (and underflow the remaining length).
  auto [guest_epd, card_epd] = guest_pair(6'200);
  auto& guest = bed_.vm(0).guest_scif();
  std::uint8_t buf[64] = {};
  sim::fault_injector().arm_nth(sim::FaultSite::kCorruptResponseRet, 1);
  EXPECT_EQ(guest.send(guest_epd, buf, sizeof(buf), SCIF_SEND_BLOCK).status(),
            Status::kIoError);
  (void)card_epd;
}

TEST_F(TrustRegression, OversizedRecvRetRejected) {
  // Recv flavour of the same bug: ret0 beyond the chunk claimed data the
  // bounce buffer never held, so the copy-back handed garbage to the user.
  auto [guest_epd, card_epd] = guest_pair(6'201);
  auto& guest = bed_.vm(0).guest_scif();
  std::uint8_t b = 7;
  ASSERT_TRUE(bed_.card_provider().send(card_epd, &b, 1, SCIF_SEND_BLOCK));
  sim::fault_injector().arm_nth(sim::FaultSite::kCorruptResponseRet, 1);
  std::uint8_t got[8] = {};
  EXPECT_EQ(guest.recv(guest_epd, got, 1, SCIF_RECV_BLOCK).status(),
            Status::kIoError);
}

}  // namespace
}  // namespace vphi::core
