// Integration tests for SCIF endpoints through the HostProvider: the
// connection lifecycle, stream messaging, RMA over registered windows,
// mmap, fences, poll and the paper's host-side timing anchors.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "mic/card.hpp"
#include "scif/api.hpp"
#include "scif/fabric.hpp"
#include "scif/host_provider.hpp"
#include "sim/actor.hpp"
#include "sim/cost_model.hpp"
#include "sim/rng.hpp"

namespace vphi::scif {
namespace {

using sim::CostModel;
using sim::Nanos;
using sim::Status;

constexpr Port kServicePort = 500;

class ScifFixture : public ::testing::Test {
 protected:
  ScifFixture()
      : card_({.index = 0, .memory_backing_bytes = 64ull << 20},
              CostModel::paper()),
        fabric_(CostModel::paper()) {
    card_.boot();
    card_node_ = fabric_.attach_card(card_);
    host_ = std::make_unique<HostProvider>(fabric_, kHostNode);
    card_side_ = std::make_unique<HostProvider>(fabric_, card_node_);
  }

  /// Start a card-side listener and return a future for its accepted epd.
  /// The listener epd is returned immediately via `listener_out`.
  std::future<int> start_card_listener(Port port, int* listener_out) {
    auto lep = card_side_->open();
    EXPECT_TRUE(lep);
    EXPECT_TRUE(card_side_->bind(*lep, port));
    EXPECT_TRUE(sim::ok(card_side_->listen(*lep, 8)));
    if (listener_out != nullptr) *listener_out = *lep;
    const int listener = *lep;
    return std::async(std::launch::async, [this, listener] {
      sim::Actor server_actor{"card-server"};
      sim::ActorScope scope(server_actor);
      auto acc = card_side_->accept(listener, SCIF_ACCEPT_SYNC);
      EXPECT_TRUE(acc);
      return acc ? acc->epd : -1;
    });
  }

  /// Establish a host-client <-> card-server pair; returns {client, server}.
  std::pair<int, int> make_pair(Port port = kServicePort) {
    int listener = -1;
    auto server_future = start_card_listener(port, &listener);
    auto cep = host_->open();
    EXPECT_TRUE(cep);
    EXPECT_TRUE(sim::ok(host_->connect(*cep, PortId{card_node_, port})));
    const int server = server_future.get();
    EXPECT_GE(server, 0);
    return {*cep, server};
  }

  mic::Card card_;
  Fabric fabric_;
  NodeId card_node_ = 0;
  std::unique_ptr<HostProvider> host_;
  std::unique_ptr<HostProvider> card_side_;
};

TEST_F(ScifFixture, ConnectAcceptLifecycle) {
  auto [client, server] = make_pair();
  auto client_ep = host_->endpoint(client);
  auto server_ep = card_side_->endpoint(server);
  ASSERT_TRUE(client_ep && server_ep);
  EXPECT_EQ(client_ep->state(), Endpoint::State::kConnected);
  EXPECT_EQ(server_ep->state(), Endpoint::State::kConnected);
  EXPECT_EQ(client_ep->peer_id().node, card_node_);
  EXPECT_EQ(server_ep->peer_id().node, kHostNode);
  EXPECT_EQ(server_ep->peer_id().port, client_ep->port());
  EXPECT_TRUE(sim::ok(host_->close(client)));
  EXPECT_TRUE(sim::ok(card_side_->close(server)));
}

TEST_F(ScifFixture, ConnectToUnservedPortRefused) {
  auto cep = host_->open();
  ASSERT_TRUE(cep);
  EXPECT_EQ(host_->connect(*cep, PortId{card_node_, 999}),
            Status::kConnectionRefused);
}

TEST_F(ScifFixture, ConnectToMissingNodeFails) {
  auto cep = host_->open();
  ASSERT_TRUE(cep);
  EXPECT_EQ(host_->connect(*cep, PortId{42, 1}), Status::kNoDevice);
}

TEST_F(ScifFixture, BindCollisionDetected) {
  auto a = card_side_->open();
  auto b = card_side_->open();
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(card_side_->bind(*a, 700));
  EXPECT_EQ(card_side_->bind(*b, 700).status(), Status::kAddressInUse);
  // Host port space is independent of the card's.
  auto c = host_->open();
  ASSERT_TRUE(c);
  EXPECT_TRUE(host_->bind(*c, 700));
}

TEST_F(ScifFixture, EphemeralBindsAreDistinct) {
  auto a = host_->open();
  auto b = host_->open();
  ASSERT_TRUE(a && b);
  auto pa = host_->bind(*a, 0);
  auto pb = host_->bind(*b, 0);
  ASSERT_TRUE(pa && pb);
  EXPECT_GE(*pa, kEphemeralBase);
  EXPECT_NE(*pa, *pb);
}

TEST_F(ScifFixture, SendRecvRoundtripBothDirections) {
  auto [client, server] = make_pair();
  sim::Rng rng{99};
  std::vector<std::uint8_t> msg(10'000);
  rng.fill(msg.data(), msg.size());

  auto sent = host_->send(client, msg.data(), msg.size(), SCIF_SEND_BLOCK);
  ASSERT_TRUE(sent);
  EXPECT_EQ(*sent, msg.size());

  std::vector<std::uint8_t> got(msg.size());
  auto received =
      card_side_->recv(server, got.data(), got.size(), SCIF_RECV_BLOCK);
  ASSERT_TRUE(received);
  EXPECT_EQ(*received, msg.size());
  EXPECT_EQ(got, msg);

  // And card -> host.
  auto back = card_side_->send(server, msg.data(), 128, SCIF_SEND_BLOCK);
  ASSERT_TRUE(back);
  std::vector<std::uint8_t> got2(128);
  auto received2 = host_->recv(client, got2.data(), 128, SCIF_RECV_BLOCK);
  ASSERT_TRUE(received2);
  EXPECT_EQ(std::memcmp(got2.data(), msg.data(), 128), 0);
}

TEST_F(ScifFixture, NonBlockingRecvReturnsWouldBlock) {
  auto [client, server] = make_pair();
  std::uint8_t b;
  EXPECT_EQ(card_side_->recv(server, &b, 1, 0).status(), Status::kWouldBlock);
  (void)client;
}

TEST_F(ScifFixture, SendOnUnconnectedFails) {
  auto ep = host_->open();
  ASSERT_TRUE(ep);
  std::uint8_t b = 0;
  EXPECT_EQ(host_->send(*ep, &b, 1, SCIF_SEND_BLOCK).status(),
            Status::kNotConnected);
  EXPECT_EQ(host_->recv(*ep, &b, 1, SCIF_RECV_BLOCK).status(),
            Status::kNotConnected);
}

TEST_F(ScifFixture, BadDescriptorRejectedEverywhere) {
  std::uint8_t b = 0;
  EXPECT_EQ(host_->close(1234), Status::kBadDescriptor);
  EXPECT_EQ(host_->send(1234, &b, 1, 0).status(), Status::kBadDescriptor);
  EXPECT_EQ(host_->listen(1234, 1), Status::kBadDescriptor);
  EXPECT_EQ(host_->readfrom(1234, 0, 1, 0, 0), Status::kBadDescriptor);
}

TEST_F(ScifFixture, PeerCloseResetsStream) {
  auto [client, server] = make_pair();
  std::uint8_t payload = 7;
  ASSERT_TRUE(host_->send(client, &payload, 1, SCIF_SEND_BLOCK));
  ASSERT_TRUE(sim::ok(host_->close(client)));

  // Buffered byte still readable, then reset.
  std::uint8_t got = 0;
  auto r1 = card_side_->recv(server, &got, 1, SCIF_RECV_BLOCK);
  ASSERT_TRUE(r1);
  EXPECT_EQ(got, 7);
  EXPECT_EQ(card_side_->recv(server, &got, 1, SCIF_RECV_BLOCK).status(),
            Status::kConnectionReset);
  EXPECT_EQ(card_side_->send(server, &got, 1, SCIF_SEND_BLOCK).status(),
            Status::kConnectionReset);
}

TEST_F(ScifFixture, CloseUnblocksPeerRecv) {
  auto [client, server] = make_pair();
  auto blocked = std::async(std::launch::async, [&] {
    sim::Actor a{"blocked"};
    sim::ActorScope scope(a);
    std::uint8_t b;
    return card_side_->recv(server, &b, 1, SCIF_RECV_BLOCK).status();
  });
  ASSERT_TRUE(sim::ok(host_->close(client)));
  EXPECT_EQ(blocked.get(), Status::kConnectionReset);
}

TEST_F(ScifFixture, ListenerCloseRefusesQueuedConnector) {
  int listener = -1;
  auto lep = card_side_->open();
  ASSERT_TRUE(lep);
  listener = *lep;
  ASSERT_TRUE(card_side_->bind(listener, 800));
  ASSERT_TRUE(sim::ok(card_side_->listen(listener, 4)));

  auto connector = std::async(std::launch::async, [&] {
    sim::Actor a{"connector"};
    sim::ActorScope scope(a);
    auto cep = host_->open();
    EXPECT_TRUE(cep);
    return host_->connect(*cep, PortId{card_node_, 800});
  });
  // Give the connector time to enqueue, then close the listener.
  while (card_side_->endpoint(listener)->poll_events(SCIF_POLLIN) == 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(sim::ok(card_side_->close(listener)));
  EXPECT_EQ(connector.get(), Status::kConnectionRefused);
}

TEST_F(ScifFixture, AcceptNonBlockingOnEmptyBacklog) {
  auto lep = card_side_->open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card_side_->bind(*lep, 801));
  ASSERT_TRUE(sim::ok(card_side_->listen(*lep, 4)));
  EXPECT_EQ(card_side_->accept(*lep, 0).status(), Status::kWouldBlock);
}

TEST_F(ScifFixture, AcceptOnNonListenerFails) {
  auto ep = card_side_->open();
  ASSERT_TRUE(ep);
  EXPECT_EQ(card_side_->accept(*ep, SCIF_ACCEPT_SYNC).status(),
            Status::kNotListening);
}

TEST_F(ScifFixture, MultipleClientsShareOneListener) {
  int listener = -1;
  auto lep = card_side_->open();
  ASSERT_TRUE(lep);
  listener = *lep;
  ASSERT_TRUE(card_side_->bind(listener, 802));
  ASSERT_TRUE(sim::ok(card_side_->listen(listener, 8)));

  constexpr int kClients = 4;
  std::vector<std::future<Status>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::async(std::launch::async, [this, i] {
      sim::Actor a{"client" + std::to_string(i)};
      sim::ActorScope scope(a);
      auto cep = host_->open();
      EXPECT_TRUE(cep);
      auto s = host_->connect(*cep, PortId{card_node_, 802});
      if (!sim::ok(s)) return s;
      const std::uint8_t tag = static_cast<std::uint8_t>(i);
      auto sent = host_->send(*cep, &tag, 1, SCIF_SEND_BLOCK);
      return sent ? Status::kOk : sent.status();
    }));
  }

  std::vector<bool> seen(kClients, false);
  for (int i = 0; i < kClients; ++i) {
    auto acc = card_side_->accept(listener, SCIF_ACCEPT_SYNC);
    ASSERT_TRUE(acc);
    std::uint8_t tag = 255;
    auto r = card_side_->recv(acc->epd, &tag, 1, SCIF_RECV_BLOCK);
    ASSERT_TRUE(r);
    ASSERT_LT(tag, kClients);
    EXPECT_FALSE(seen[tag]);
    seen[tag] = true;
  }
  for (auto& c : clients) EXPECT_EQ(c.get(), Status::kOk);
}

// --- timing anchors ------------------------------------------------------------

TEST_F(ScifFixture, HostOneByteSendLatencyIs7us) {
  // Fig. 4 anchor: native 1-byte send-recv latency is 7 us, measured as the
  // duration of the client's blocking scif_send.
  auto [client, server] = make_pair();
  sim::Actor client_actor{"client"};
  sim::ActorScope scope(client_actor);
  const Nanos before = client_actor.now();
  std::uint8_t b = 1;
  ASSERT_TRUE(host_->send(client, &b, 1, SCIF_SEND_BLOCK));
  // 7 us fixed path + the (1 ns) wire time of the single byte.
  EXPECT_NEAR(static_cast<double>(client_actor.now() - before), 7'000.0, 2.0);
  (void)server;
}

TEST_F(ScifFixture, HostLatencyOffsetConstantWithSize) {
  // Fig. 4 shows latency growing with size but the *offset* between curves
  // constant; here: host latency at size N = 7 us + N/stream_bw.
  auto [client, server] = make_pair();
  sim::Actor client_actor{"client"};
  sim::ActorScope scope(client_actor);
  const auto& m = CostModel::paper();
  for (std::size_t len : {1ull, 1024ull, 65'536ull}) {
    std::vector<std::uint8_t> buf(len);
    const Nanos before = client_actor.now();
    ASSERT_TRUE(host_->send(client, buf.data(), len, SCIF_SEND_BLOCK));
    const Nanos lat = client_actor.now() - before;
    const Nanos expect =
        7'000 + sim::transfer_time(len, m.scif_stream_bandwidth_Bps);
    EXPECT_EQ(lat, expect) << "size " << len;
    // Drain so flow control never interferes.
    std::vector<std::uint8_t> sink(len);
    ASSERT_TRUE(card_side_->recv(server, sink.data(), len, SCIF_RECV_BLOCK));
  }
}

// --- RMA --------------------------------------------------------------------

class ScifRmaFixture : public ScifFixture {
 protected:
  void SetUp() override {
    std::tie(client_, server_) = make_pair();
    // The card-side server registers a window of device memory.
    auto dev_off = card_.memory().allocate(kWinBytes);
    ASSERT_TRUE(dev_off);
    dev_base_ = static_cast<std::byte*>(card_.memory().at(*dev_off));
    sim::Rng rng{7};
    rng.fill(dev_base_, kWinBytes);
    auto reg = card_side_->register_mem(server_, dev_base_, kWinBytes, 0,
                                        SCIF_PROT_READ | SCIF_PROT_WRITE, 0);
    ASSERT_TRUE(reg);
    remote_off_ = *reg;

    local_.resize(kWinBytes);
    auto lreg = host_->register_mem(client_, local_.data(), kWinBytes, 0,
                                    SCIF_PROT_READ | SCIF_PROT_WRITE, 0);
    ASSERT_TRUE(lreg);
    local_off_ = *lreg;
  }

  static constexpr std::size_t kWinBytes = 1 << 20;
  int client_ = -1, server_ = -1;
  std::byte* dev_base_ = nullptr;
  RegOffset remote_off_ = 0, local_off_ = 0;
  std::vector<std::byte> local_;
};

TEST_F(ScifRmaFixture, ReadfromPullsRemoteData) {
  ASSERT_EQ(host_->readfrom(client_, local_off_, kWinBytes, remote_off_,
                            SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(local_.data(), dev_base_, kWinBytes), 0);
}

TEST_F(ScifRmaFixture, WritetoPushesLocalData) {
  sim::Rng rng{8};
  rng.fill(local_.data(), kWinBytes);
  ASSERT_EQ(host_->writeto(client_, local_off_, kWinBytes, remote_off_,
                           SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(dev_base_, local_.data(), kWinBytes), 0);
}

TEST_F(ScifRmaFixture, SubrangeRma) {
  ASSERT_EQ(host_->readfrom(client_, local_off_ + 4'096, 8'192,
                            remote_off_ + 16'384, SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(local_.data() + 4'096, dev_base_ + 16'384, 8'192), 0);
}

TEST_F(ScifRmaFixture, VreadVwriteUseRawPointers) {
  std::vector<std::byte> scratch(65'536);
  ASSERT_EQ(host_->vreadfrom(client_, scratch.data(), scratch.size(),
                             remote_off_, SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(scratch.data(), dev_base_, scratch.size()), 0);

  sim::Rng rng{9};
  rng.fill(scratch.data(), scratch.size());
  ASSERT_EQ(host_->vwriteto(client_, scratch.data(), scratch.size(),
                            remote_off_ + 65'536, SCIF_RMA_SYNC),
            Status::kOk);
  EXPECT_EQ(std::memcmp(dev_base_ + 65'536, scratch.data(), scratch.size()), 0);
}

TEST_F(ScifRmaFixture, RmaBeyondWindowFails) {
  EXPECT_EQ(host_->readfrom(client_, local_off_, kWinBytes + 1, remote_off_,
                            SCIF_RMA_SYNC),
            Status::kNoSuchEntry);
  EXPECT_EQ(host_->readfrom(client_, local_off_, 1, remote_off_ + kWinBytes,
                            SCIF_RMA_SYNC),
            Status::kNoSuchEntry);
}

TEST_F(ScifRmaFixture, ProtectionEnforcedOnRma) {
  // A read-only remote window cannot be written to.
  std::vector<std::byte> ro(4'096);
  auto reg = card_side_->register_mem(server_, ro.data(), ro.size(), 0,
                                      SCIF_PROT_READ, 0);
  ASSERT_TRUE(reg);
  EXPECT_EQ(host_->writeto(client_, local_off_, 4'096, *reg, SCIF_RMA_SYNC),
            Status::kAccessDenied);
}

TEST_F(ScifRmaFixture, UnregisterThenRmaFails) {
  ASSERT_EQ(card_side_->unregister_mem(server_, remote_off_, kWinBytes),
            Status::kOk);
  EXPECT_EQ(host_->readfrom(client_, local_off_, 1, remote_off_,
                            SCIF_RMA_SYNC),
            Status::kNoSuchEntry);
}

TEST_F(ScifRmaFixture, AsyncRmaCompletesViaFence) {
  sim::Actor actor{"rma"};
  sim::ActorScope scope(actor);
  // Async read (no SYNC): caller's clock does not jump to completion...
  ASSERT_EQ(host_->readfrom(client_, local_off_, kWinBytes, remote_off_, 0),
            Status::kOk);
  const Nanos after_issue = actor.now();
  auto mark = host_->fence_mark(client_, SCIF_FENCE_INIT_SELF);
  ASSERT_TRUE(mark);
  ASSERT_EQ(host_->fence_wait(client_, *mark), Status::kOk);
  // ...the fence_wait does.
  EXPECT_GT(actor.now(), after_issue);
  EXPECT_EQ(std::memcmp(local_.data(), dev_base_, kWinBytes), 0);
}

TEST_F(ScifRmaFixture, FenceWaitUnknownMarkFails) {
  EXPECT_EQ(host_->fence_wait(client_, 424'242), Status::kInvalidArgument);
}

TEST_F(ScifRmaFixture, FenceSignalWritesBothSides) {
  ASSERT_EQ(host_->readfrom(client_, local_off_, 4'096, remote_off_, 0),
            Status::kOk);
  ASSERT_EQ(host_->fence_signal(client_, local_off_, 0xABCD, remote_off_,
                                0x1234, SCIF_SIGNAL_LOCAL | SCIF_SIGNAL_REMOTE),
            Status::kOk);
  std::uint64_t lval = 0, rval = 0;
  std::memcpy(&lval, local_.data(), sizeof(lval));
  std::memcpy(&rval, dev_base_, sizeof(rval));
  EXPECT_EQ(lval, 0xABCDu);
  EXPECT_EQ(rval, 0x1234u);
}

TEST_F(ScifRmaFixture, HostRmaThroughputApproaches6p4GBs) {
  // Fig. 5 anchor, measured through the full provider path.
  sim::Actor actor{"tp"};
  sim::ActorScope scope(actor);
  // Use a larger remote window for a closer asymptote.
  constexpr std::size_t kBig = 32ull << 20;
  auto dev_off = card_.memory().allocate(kBig);
  ASSERT_TRUE(dev_off);
  auto reg = card_side_->register_mem(
      server_, card_.memory().at(*dev_off), kBig, 0, SCIF_PROT_READ, 0);
  ASSERT_TRUE(reg);
  // Like the paper's benchmark, registration happens outside the timed
  // region; the timed part is the remote read alone.
  std::vector<std::byte> sink(kBig);
  auto lreg = host_->register_mem(client_, sink.data(), kBig, 0,
                                  SCIF_PROT_READ | SCIF_PROT_WRITE, 0);
  ASSERT_TRUE(lreg);
  const Nanos before = actor.now();
  ASSERT_EQ(host_->readfrom(client_, *lreg, kBig, *reg, SCIF_RMA_SYNC),
            Status::kOk);
  const double gbps =
      static_cast<double>(kBig) / static_cast<double>(actor.now() - before);
  EXPECT_NEAR(gbps, 6.4, 0.15);
}

TEST_F(ScifRmaFixture, UsecpuSlowerThanDmaForBulk) {
  sim::Actor actor{"cpu"};
  sim::ActorScope scope(actor);
  const Nanos t0 = actor.now();
  ASSERT_EQ(host_->readfrom(client_, local_off_, kWinBytes, remote_off_,
                            SCIF_RMA_SYNC | SCIF_RMA_USECPU),
            Status::kOk);
  const Nanos cpu_time = actor.now() - t0;
  const Nanos t1 = actor.now();
  ASSERT_EQ(host_->readfrom(client_, local_off_, kWinBytes, remote_off_,
                            SCIF_RMA_SYNC),
            Status::kOk);
  const Nanos dma_time = actor.now() - t1;
  EXPECT_GT(cpu_time, dma_time);
}

// --- mmap ------------------------------------------------------------------

TEST_F(ScifRmaFixture, MmapReadsRemoteMemory) {
  auto mapping = host_->mmap(client_, remote_off_, 8'192, SCIF_PROT_READ);
  ASSERT_TRUE(mapping);
  std::vector<std::byte> buf(8'192);
  ASSERT_EQ(host_->map_read(*mapping, 0, buf.data(), buf.size()), Status::kOk);
  EXPECT_EQ(std::memcmp(buf.data(), dev_base_, buf.size()), 0);
  EXPECT_EQ(host_->munmap(*mapping), Status::kOk);
  EXPECT_FALSE(mapping->valid());
}

TEST_F(ScifRmaFixture, MmapWriteVisibleToOwner) {
  auto mapping = host_->mmap(client_, remote_off_, 4'096,
                             SCIF_PROT_READ | SCIF_PROT_WRITE);
  ASSERT_TRUE(mapping);
  const char msg[] = "written through the BAR";
  ASSERT_EQ(host_->map_write(*mapping, 100, msg, sizeof(msg)), Status::kOk);
  EXPECT_EQ(std::memcmp(dev_base_ + 100, msg, sizeof(msg)), 0);
  ASSERT_EQ(host_->munmap(*mapping), Status::kOk);
}

TEST_F(ScifRmaFixture, MmapBlocksUnregister) {
  auto mapping = host_->mmap(client_, remote_off_, 4'096, SCIF_PROT_READ);
  ASSERT_TRUE(mapping);
  EXPECT_EQ(card_side_->unregister_mem(server_, remote_off_, kWinBytes),
            Status::kBusy);
  ASSERT_EQ(host_->munmap(*mapping), Status::kOk);
  EXPECT_EQ(card_side_->unregister_mem(server_, remote_off_, kWinBytes),
            Status::kOk);
}

TEST_F(ScifRmaFixture, MmapOutOfRangeAccessRejected) {
  auto mapping = host_->mmap(client_, remote_off_, 4'096, SCIF_PROT_READ);
  ASSERT_TRUE(mapping);
  std::byte b;
  EXPECT_EQ(host_->map_read(*mapping, 4'096, &b, 1), Status::kOutOfRange);
  ASSERT_EQ(host_->munmap(*mapping), Status::kOk);
}

TEST_F(ScifRmaFixture, MmapUnknownOffsetFails) {
  EXPECT_EQ(host_->mmap(client_, remote_off_ + (64ull << 30), 4'096,
                        SCIF_PROT_READ)
                .status(),
            Status::kNoSuchEntry);
}

// --- poll ----------------------------------------------------------------------

TEST_F(ScifFixture, PollSeesIncomingData) {
  auto [client, server] = make_pair();
  PollEpd p{server, SCIF_POLLIN, 0};
  auto n = card_side_->poll(&p, 1, 0);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 0) << "nothing pending yet";

  std::uint8_t b = 5;
  ASSERT_TRUE(host_->send(client, &b, 1, SCIF_SEND_BLOCK));
  n = card_side_->poll(&p, 1, -1);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(p.revents & SCIF_POLLIN);
}

TEST_F(ScifFixture, PollListenerReadyOnPendingConnect) {
  int listener = -1;
  auto server_future = start_card_listener(900, &listener);
  auto cep = host_->open();
  ASSERT_TRUE(cep);
  ASSERT_TRUE(sim::ok(host_->connect(*cep, PortId{card_node_, 900})));
  server_future.get();
  // After accept drained the backlog, the listener is quiet again.
  PollEpd p{listener, SCIF_POLLIN, 0};
  auto n = card_side_->poll(&p, 1, 0);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 0);
}

TEST_F(ScifFixture, PollHupOnPeerClose) {
  auto [client, server] = make_pair();
  ASSERT_TRUE(sim::ok(host_->close(client)));
  PollEpd p{server, SCIF_POLLIN, 0};
  auto n = card_side_->poll(&p, 1, -1);
  ASSERT_TRUE(n);
  EXPECT_TRUE(p.revents & (SCIF_POLLHUP | SCIF_POLLIN));
}

TEST_F(ScifFixture, PollInvalidDescriptorFlagged) {
  PollEpd p{31'337, SCIF_POLLIN, 0};
  auto n = host_->poll(&p, 1, 0);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(p.revents, SCIF_POLLNVAL);
}

TEST_F(ScifFixture, PollTimeoutAdvancesSimClock) {
  auto [client, server] = make_pair();
  (void)client;
  sim::Actor actor{"poller"};
  sim::ActorScope scope(actor);
  PollEpd p{server, SCIF_POLLIN, 0};
  const Nanos before = actor.now();
  auto n = card_side_->poll(&p, 1, 5);
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, 0);
  EXPECT_GE(actor.now() - before, 5 * sim::kMillisecond);
}

// --- topology / info ------------------------------------------------------------

TEST_F(ScifFixture, NodeIdsReported) {
  auto host_ids = host_->get_node_ids();
  ASSERT_TRUE(host_ids);
  EXPECT_EQ(host_ids->total, 2);
  EXPECT_EQ(host_ids->self, kHostNode);
  auto card_ids = card_side_->get_node_ids();
  ASSERT_TRUE(card_ids);
  EXPECT_EQ(card_ids->self, card_node_);
}

TEST_F(ScifFixture, CardInfoExposed) {
  auto info = host_->card_info(0);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->get("sku").value(), "3120P");
  EXPECT_EQ(host_->card_info(5).status(), Status::kNoDevice);
}

// --- the C shim -------------------------------------------------------------------

TEST_F(ScifFixture, CStyleApiMirrorsProvider) {
  int listener = -1;
  auto server_future = start_card_listener(950, &listener);

  api::ProcessContext ctx(*host_);
  const auto epd = api::scif_open();
  ASSERT_GE(epd, 0);
  const PortId dst{card_node_, 950};
  ASSERT_EQ(api::scif_connect(epd, &dst), 0);
  const int server = server_future.get();

  const char msg[] = "hello from the C API";
  EXPECT_EQ(api::scif_send(epd, msg, sizeof(msg), SCIF_SEND_BLOCK),
            static_cast<long>(sizeof(msg)));
  char got[sizeof(msg)] = {};
  auto r = card_side_->recv(server, got, sizeof(msg), SCIF_RECV_BLOCK);
  ASSERT_TRUE(r);
  EXPECT_STREQ(got, msg);

  NodeId self = 99;
  EXPECT_EQ(api::scif_get_node_ids(nullptr, 0, &self), 2);
  EXPECT_EQ(self, kHostNode);
  EXPECT_EQ(api::scif_close(epd), 0);
  EXPECT_EQ(api::scif_close(epd), -1) << "double close";
  EXPECT_EQ(api::scif_last_error(), Status::kBadDescriptor);
}

TEST(ScifApiNoContext, CallsFailWithoutProcessContext) {
  EXPECT_EQ(api::scif_open(), -1);
  EXPECT_EQ(api::scif_last_error(), Status::kNoDevice);
}

}  // namespace
}  // namespace vphi::scif
