// Coverage for the remaining C-style libscif shim entry points (host side)
// and the logging utility.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "mic/card.hpp"
#include "scif/api.hpp"
#include "scif/fabric.hpp"
#include "scif/host_provider.hpp"
#include "sim/log.hpp"
#include "tools/testbed.hpp"

namespace vphi::scif::api {
namespace {

using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

class ApiShimFixture : public ::testing::Test {
 protected:
  ApiShimFixture() : bed_(TestbedConfig{}) {}

  /// Host client connected to a card window server (window at offset 0).
  int connected_client(scif::Port port, std::size_t window_bytes) {
    auto& card = bed_.card_provider();
    auto lep = card.open();
    EXPECT_TRUE(lep);
    EXPECT_TRUE(card.bind(*lep, port));
    EXPECT_TRUE(sim::ok(card.listen(*lep, 2)));
    server_ = std::async(std::launch::async, [this, lep = *lep,
                                              window_bytes] {
      sim::Actor a{"srv", sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      auto& card_p = bed_.card_provider();
      auto acc = card_p.accept(lep, SCIF_ACCEPT_SYNC);
      ASSERT_TRUE(acc);
      auto dev = bed_.card().memory().allocate(window_bytes);
      ASSERT_TRUE(dev);
      ASSERT_TRUE(card_p.register_mem(
          acc->epd, bed_.card().memory().at(*dev), window_bytes, 0,
          SCIF_PROT_READ | SCIF_PROT_WRITE, SCIF_MAP_FIXED));
      std::uint8_t ready = 1;
      ASSERT_TRUE(card_p.send(acc->epd, &ready, 1, SCIF_SEND_BLOCK));
      std::uint8_t bye;
      card_p.recv(acc->epd, &bye, 1, SCIF_RECV_BLOCK);
    });
    const auto epd = scif_open();
    EXPECT_GE(epd, 0);
    const PortId dst{bed_.card_node(), port};
    EXPECT_EQ(scif_connect(epd, &dst), 0);
    std::uint8_t ready = 0;
    EXPECT_EQ(scif_recv(epd, &ready, 1, SCIF_RECV_BLOCK), 1);
    return epd;
  }

  void finish(int epd) {
    std::uint8_t bye = 0;
    scif_send(epd, &bye, 1, SCIF_SEND_BLOCK);
    server_.get();
    EXPECT_EQ(scif_close(epd), 0);
  }

  Testbed bed_;
  std::future<void> server_;
};

TEST_F(ApiShimFixture, RegisterRmaFenceUnregisterViaShim) {
  sim::Actor a{"app", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  ProcessContext ctx(bed_.host_provider());
  const int epd = connected_client(8'500, 1 << 20);

  std::vector<std::byte> local(1 << 20);
  const long off = scif_register(epd, local.data(), local.size(), 0,
                                 SCIF_PROT_READ | SCIF_PROT_WRITE, 0);
  ASSERT_GE(off, 0);

  EXPECT_EQ(scif_readfrom(epd, off, 65'536, 0, 0), 0);
  EXPECT_EQ(scif_writeto(epd, off, 65'536, 65'536, 0), 0);
  int mark = -1;
  ASSERT_EQ(scif_fence_mark(epd, SCIF_FENCE_INIT_SELF, &mark), 0);
  ASSERT_EQ(scif_fence_wait(epd, mark), 0);
  EXPECT_EQ(scif_fence_signal(epd, off, 0xAA, 0, 0xBB,
                              SCIF_SIGNAL_LOCAL | SCIF_SIGNAL_REMOTE),
            0);
  std::uint64_t lval = 0;
  std::memcpy(&lval, local.data(), sizeof(lval));
  EXPECT_EQ(lval, 0xAAu);

  EXPECT_EQ(scif_vwriteto(epd, local.data(), 4'096, 8'192, SCIF_RMA_SYNC), 0);
  EXPECT_EQ(scif_vreadfrom(epd, local.data(), 4'096, 8'192, SCIF_RMA_SYNC), 0);

  EXPECT_EQ(scif_unregister(epd, off, local.size()), 0);
  EXPECT_EQ(scif_readfrom(epd, off, 1, 0, 0), -1);
  EXPECT_EQ(scif_last_error(), Status::kNoSuchEntry);
  finish(epd);
}

TEST_F(ApiShimFixture, PollAndListenViaShim) {
  sim::Actor a{"app", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  ProcessContext ctx(bed_.host_provider());

  const int listener = scif_open();
  ASSERT_GE(listener, 0);
  ASSERT_GE(scif_bind(listener, 8'600), 0);
  ASSERT_EQ(scif_listen(listener, 4), 0);

  PollEpd p{listener, SCIF_POLLIN, 0};
  EXPECT_EQ(scif_poll(&p, 1, 0), 0) << "no pending connects yet";

  // A card-side connector makes the listener readable; then accept works.
  auto connector = std::async(std::launch::async, [&] {
    sim::Actor ca{"connector", sim::Actor::AtNow{}};
    sim::ActorScope cscope(ca);
    auto& card = bed_.card_provider();
    auto epd = card.open();
    ASSERT_TRUE(epd);
    ASSERT_TRUE(sim::ok(card.connect(*epd, PortId{kHostNode, 8'600})));
  });
  EXPECT_EQ(scif_poll(&p, 1, -1), 1);
  EXPECT_TRUE(p.revents & SCIF_POLLIN);
  PortId peer;
  int accepted = -1;
  EXPECT_EQ(scif_accept(listener, &peer, &accepted, SCIF_ACCEPT_SYNC), 0);
  EXPECT_EQ(peer.node, bed_.card_node());
  connector.get();
  EXPECT_EQ(scif_close(accepted), 0);
  EXPECT_EQ(scif_close(listener), 0);
}

TEST_F(ApiShimFixture, ShimArgumentValidation) {
  sim::Actor a{"app", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  ProcessContext ctx(bed_.host_provider());
  const int epd = scif_open();
  ASSERT_GE(epd, 0);
  EXPECT_EQ(scif_connect(epd, nullptr), -1);
  EXPECT_EQ(scif_last_error(), Status::kBadAddress);
  EXPECT_EQ(scif_accept(epd, nullptr, nullptr, 0), -1);
  EXPECT_EQ(scif_fence_mark(epd, 0, nullptr), -1);
  Mapping out;
  EXPECT_EQ(scif_mmap(epd, 0, 4'096, SCIF_PROT_READ, nullptr), -1);
  EXPECT_EQ(scif_mmap(epd, 0, 4'096, SCIF_PROT_READ, &out), -1)
      << "not connected";
  EXPECT_EQ(scif_munmap(nullptr), -1);
  EXPECT_EQ(scif_close(epd), 0);
}

}  // namespace
}  // namespace vphi::scif::api

namespace vphi::sim {
namespace {

TEST(Log, LevelsFilterAndEmit) {
  const LogLevel prior = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  VPHI_LOG(kDebug, "test") << "visible " << 42;
  VPHI_LOG(kTrace, "test") << "filtered out";
  log_line(LogLevel::kError, "test", "direct call");
  set_log_level(prior);
}

}  // namespace
}  // namespace vphi::sim
