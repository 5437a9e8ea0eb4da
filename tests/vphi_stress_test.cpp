// Concurrency, shutdown and robustness tests for the vPHI stack:
// many guest threads on one ring, teardown under load, fixed-offset
// registration through the wire, failure injection (wrong card family,
// exhausted guest RAM), and per-VM isolation of failures.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "metric_reads.hpp"
#include "sim/actor.hpp"
#include "sim/rng.hpp"
#include "tools/micnativeloadex.hpp"
#include "tools/testbed.hpp"
#include "workloads/dgemm.hpp"

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

TEST(VphiStress, ManyGuestThreadsShareOneRing) {
  // With the all-worker backend (so intra-VM requests cannot serialize
  // into a deadlock), several guest threads hammer one VM's ring
  // concurrently; every echo must come back intact to its own thread.
  TestbedConfig config;
  config.backend_policy.classify = BackendPolicy::all_worker();
  const LabelDeltas vm0{"vm=vm0"};
  Testbed bed{config};

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 25;

  // One card-side echo service per guest thread (fixed 64-byte frames).
  auto& card = bed.card_provider();
  std::vector<std::future<void>> echoes;
  for (int t = 0; t < kThreads; ++t) {
    auto lep = card.open();
    ASSERT_TRUE(lep);
    ASSERT_TRUE(card.bind(*lep, static_cast<scif::Port>(7'000 + t)));
    ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
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
              *epd, PortId{bed.card_node(),
                           static_cast<scif::Port>(7'000 + t)}))) {
        ++failures;
        return;
      }
      sim::Rng rng{static_cast<std::uint64_t>(t) + 1};
      std::uint8_t out[64], in[64];
      for (int round = 0; round < kRoundsPerThread; ++round) {
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
  EXPECT_GE(vm0["vphi.be.requests.worker"] + vm0["vphi.be.requests.blocking"],
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread * 2));
}

TEST(VphiStress, VmShutdownUnblocksPendingGuest) {
  // A guest blocked in a ring round trip must come back with kShutDown
  // when the VM is torn down underneath it (not hang).
  const LabelDeltas vm0{"vm=vm0"};
  auto bed = std::make_unique<Testbed>(TestbedConfig{});
  auto& guest = bed->vm(0).guest_scif();

  // Block a guest thread in recv on a connection nobody will ever feed.
  auto lep = bed->card_provider().open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(bed->card_provider().bind(*lep, 7'100));
  ASSERT_TRUE(sim::ok(bed->card_provider().listen(*lep, 2)));
  auto acceptor = std::async(std::launch::async, [&] {
    sim::Actor a{"acceptor", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    return bed->card_provider().accept(*lep, SCIF_ACCEPT_SYNC).status();
  });
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed->card_node(), 7'100})));
  ASSERT_EQ(acceptor.get(), Status::kOk);

  std::promise<Status> blocked_result;
  std::thread blocked([&] {
    sim::Actor a{"blocked", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    std::uint8_t b;
    blocked_result.set_value(guest.recv(*epd, &b, 1, SCIF_RECV_BLOCK).status());
  });
  // Give the request time to reach the backend, then tear the VM down.
  auto fut = blocked_result.get_future();
  while (vm0["vphi.be.op.recv.requests"] == 0) {
    std::this_thread::yield();
  }
  bed.reset();  // destroys VMs: ring shutdown + endpoint close
  const auto status = fut.get();
  blocked.join();
  EXPECT_TRUE(status == Status::kShutDown ||
              status == Status::kConnectionReset)
      << "got " << std::string(sim::to_string(status));
}

TEST(VphiStress, FixedOffsetRegistrationThroughTheWire) {
  Testbed bed{TestbedConfig{}};
  auto& card = bed.card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, 7'200));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&] {
    sim::Actor a{"srv", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    return card.accept(*lep, SCIF_ACCEPT_SYNC)->epd;
  });
  sim::Actor a{"guest", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), 7'200})));
  server.get();

  auto buf = bed.vm(0).alloc_user_buffer(8'192);
  ASSERT_TRUE(buf);
  // SCIF_MAP_FIXED must ride the wire intact.
  auto reg = guest.register_mem(*epd, *buf, 8'192, 0x40000,
                                SCIF_PROT_READ | SCIF_PROT_WRITE,
                                scif::SCIF_MAP_FIXED);
  ASSERT_TRUE(reg);
  EXPECT_EQ(*reg, 0x40000);
  // Overlapping fixed registration rejected end to end.
  auto clash = guest.register_mem(*epd, *buf, 8'192, 0x40000,
                                  SCIF_PROT_READ, scif::SCIF_MAP_FIXED);
  EXPECT_EQ(clash.status(), Status::kAlreadyExists);
  EXPECT_EQ(guest.unregister_mem(*epd, 0x40000, 8'192), Status::kOk);
}

TEST(VphiStress, GuestRamExhaustionSurfacesAsNoMemory) {
  // A VM with tiny RAM cannot stage a large bounce buffer: the frontend's
  // kmalloc fails and the caller sees kNoMemory (not a crash, not a hang).
  TestbedConfig config;
  config.vm_ram_bytes = 8ull << 20;
  Testbed bed{config};
  auto& card = bed.card_provider();
  auto lep = card.open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(card.bind(*lep, 7'300));
  ASSERT_TRUE(sim::ok(card.listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&] {
    sim::Actor a{"srv", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    return card.accept(*lep, SCIF_ACCEPT_SYNC).status();
  });
  sim::Actor a{"guest", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  ASSERT_TRUE(epd);
  ASSERT_TRUE(sim::ok(guest.connect(*epd, PortId{bed.card_node(), 7'300})));
  ASSERT_EQ(server.get(), Status::kOk);

  // 4 MiB payload needs a 4 MiB bounce, but most of the 8 MiB RAM is gone
  // (ring buffers, the payload staging copy itself, allocator rounding).
  std::vector<std::uint8_t> huge(4ull << 20);
  auto buf = bed.vm(0).alloc_user_buffer(6ull << 20);  // eat the RAM
  ASSERT_TRUE(buf);
  auto sent = guest.send(*epd, huge.data(), huge.size(), SCIF_SEND_BLOCK);
  EXPECT_EQ(sent.status(), Status::kNoMemory);
}

TEST(VphiStress, LoadexRejectsWrongFamilyCard) {
  // micnativeloadex checks the sysfs family string; a non-KNC part (or a
  // card whose state is not "online") must be refused before any SCIF
  // traffic happens.
  Testbed bed{TestbedConfig{}};
  workloads::register_dgemm_kernel();
  bed.card().sysfs().set("family", "Knights Landing");
  sim::Actor a{"host", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  tools::MicNativeLoadEx loadex{bed.host_provider()};
  const auto image = workloads::make_dgemm_image(bed.model());
  EXPECT_EQ(loadex.run(image, {}).status(), Status::kNoDevice);

  bed.card().sysfs().set("family", "Knights Corner");
  bed.card().sysfs().set("state", "resetting");
  EXPECT_EQ(loadex.run(image, {}).status(), Status::kNoDevice);
}

TEST(VphiStress, FailureInOneVmDoesNotAffectAnother) {
  TestbedConfig config;
  config.num_vms = 2;
  Testbed bed{config};
  // VM0 misbehaves: connects to a dead port (refused).
  {
    sim::Actor a{"vm0", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto& g0 = bed.vm(0).guest_scif();
    auto e0 = g0.open();
    ASSERT_TRUE(e0);
    EXPECT_EQ(g0.connect(*e0, PortId{bed.card_node(), 31'999}),
              Status::kConnectionRefused);
  }
  // VM1 proceeds normally.
  auto lep = bed.card_provider().open();
  ASSERT_TRUE(lep);
  ASSERT_TRUE(bed.card_provider().bind(*lep, 7'400));
  ASSERT_TRUE(sim::ok(bed.card_provider().listen(*lep, 2)));
  auto server = std::async(std::launch::async, [&] {
    sim::Actor a{"srv", sim::Actor::AtNow{}};
    sim::ActorScope scope(a);
    auto acc = bed.card_provider().accept(*lep, SCIF_ACCEPT_SYNC);
    ASSERT_TRUE(acc);
    std::uint8_t b;
    EXPECT_TRUE(bed.card_provider().recv(acc->epd, &b, 1, SCIF_RECV_BLOCK));
  });
  sim::Actor a{"vm1", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto& g1 = bed.vm(1).guest_scif();
  auto e1 = g1.open();
  ASSERT_TRUE(e1);
  ASSERT_TRUE(sim::ok(g1.connect(*e1, PortId{bed.card_node(), 7'400})));
  std::uint8_t b = 1;
  EXPECT_TRUE(g1.send(*e1, &b, 1, SCIF_SEND_BLOCK));
  server.get();
}

}  // namespace
}  // namespace vphi::core
