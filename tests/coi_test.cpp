// Tests for the COI layer (wire format, kernel registry, daemon, process
// lifecycle) and the dgemm workload, on both the native and vPHI paths.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "coi/binary.hpp"
#include "coi/process.hpp"
#include "coi/wire.hpp"
#include "sim/actor.hpp"
#include "tools/testbed.hpp"
#include "workloads/dgemm.hpp"

namespace vphi::coi {
namespace {

using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

TEST(Wire, EncodeDecodeRoundtrip) {
  Encoder e;
  e.put_u32(42);
  e.put_u64(1ull << 40);
  e.put_i64(-7);
  e.put_string("hello");
  e.put_strings({"a", "bc", ""});

  Decoder d{e.bytes().data(), e.bytes().size()};
  EXPECT_EQ(d.u32().value(), 42u);
  EXPECT_EQ(d.u64().value(), 1ull << 40);
  EXPECT_EQ(d.i64().value(), -7);
  EXPECT_EQ(d.string().value(), "hello");
  auto v = d.strings();
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, (std::vector<std::string>{"a", "bc", ""}));
  EXPECT_EQ(d.remaining(), 0u);
}

TEST(Wire, DecoderRejectsTruncation) {
  Encoder e;
  e.put_string("truncate me");
  Decoder d{e.bytes().data(), e.bytes().size() - 3};
  EXPECT_EQ(d.string().status(), Status::kOutOfRange);
  Decoder d2{e.bytes().data(), 2};
  EXPECT_EQ(d2.u32().status(), Status::kOutOfRange);
}

TEST(KernelRegistry, RegisterLookup) {
  auto& reg = KernelRegistry::instance();
  reg.register_kernel("coi_test_kernel", [](KernelContext& ctx) {
    ctx.output = "ran";
    return 5;
  });
  EXPECT_TRUE(reg.contains("coi_test_kernel"));
  auto fn = reg.lookup("coi_test_kernel");
  ASSERT_TRUE(fn);
  EXPECT_EQ(reg.lookup("missing_kernel").status(), Status::kNoSuchEntry);
}

TEST(BinaryImage, TotalBytesSumsLibraries) {
  BinaryImage image;
  image.bytes = 100;
  image.libraries = {{"a.so", 50}, {"b.so", 25}};
  EXPECT_EQ(image.total_bytes(), 175u);
}

class CoiFixture : public ::testing::Test {
 protected:
  CoiFixture() : bed_(TestbedConfig{.num_vms = 1}) {
    workloads::register_dgemm_kernel();
  }
  Testbed bed_;
};

TEST_F(CoiFixture, EnumerateEnginesSeesTheCard) {
  auto engines = enumerate_engines(bed_.host_provider());
  ASSERT_TRUE(engines);
  ASSERT_EQ(engines->size(), 1u);
  EXPECT_EQ((*engines)[0].family, "Knights Corner");
  EXPECT_EQ((*engines)[0].sku, "3120P");
  EXPECT_EQ((*engines)[0].node, 1);
}

TEST_F(CoiFixture, ProcessCreateStreamsAndStarts) {
  BinaryImage image;
  image.name = "tiny.mic";
  image.bytes = 1 << 20;
  image.libraries = {{"libtiny.so", 2 << 20}};
  image.entry_kernel = "noop";

  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  auto process = Process::create(bed_.host_provider(), bed_.card_node(), image,
                                 4, {});
  ASSERT_TRUE(process);
  EXPECT_TRUE(process->valid());
  EXPECT_GT(process->pid(), 0u);
  EXPECT_EQ(bed_.coi_daemon()->processes_created(), 1u);

  auto exited = process->wait_for_shutdown();
  ASSERT_TRUE(exited);
  EXPECT_EQ(exited->exit_code, 0);
  EXPECT_EQ(exited->output, "ok");
}

TEST_F(CoiFixture, RunFunctionOnLiveProcess) {
  BinaryImage image;
  image.name = "svc.mic";
  image.bytes = 4'096;
  image.entry_kernel = "noop";
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  auto process =
      Process::create(bed_.host_provider(), bed_.card_node(), image, 1, {});
  ASSERT_TRUE(process);
  auto result = process->run_function("noop", {"x"});
  ASSERT_TRUE(result);
  EXPECT_EQ(result->exit_code, 0);
  EXPECT_EQ(bed_.coi_daemon()->functions_run(), 1u);

  auto missing = process->run_function("not_registered", {});
  ASSERT_TRUE(missing);
  EXPECT_EQ(missing->exit_code, 127) << "loader error for unknown entry";
}

TEST_F(CoiFixture, BufferAllocFree) {
  BinaryImage image;
  image.name = "buf.mic";
  image.bytes = 4'096;
  image.entry_kernel = "noop";
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  auto process =
      Process::create(bed_.host_provider(), bed_.card_node(), image, 1, {});
  ASSERT_TRUE(process);
  const auto used_before = bed_.card().memory().used();
  auto buffer = process->alloc_buffer(1 << 20);
  ASSERT_TRUE(buffer);
  EXPECT_GT(bed_.card().memory().used(), used_before);
  EXPECT_EQ(process->free_buffer(*buffer), Status::kOk);
  EXPECT_EQ(bed_.card().memory().used(), used_before);
}

TEST_F(CoiFixture, WrappingBufferLengthIsRejected) {
  BinaryImage image;
  image.name = "wrap.mic";
  image.bytes = 4'096;
  image.entry_kernel = "noop";
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  auto process =
      Process::create(bed_.host_provider(), bed_.card_node(), image, 1, {});
  ASSERT_TRUE(process);
  // Two buffers, so the one under test sits at a nonzero card offset and
  // handle + len wraps past zero: the daemon must not read past the block.
  auto first = process->alloc_buffer(4'096);
  auto buffer = process->alloc_buffer(8'192);
  ASSERT_TRUE(first && buffer);
  ASSERT_GT(*buffer, 0u);
  std::vector<std::uint8_t> buf(8'192);
  EXPECT_EQ(process->read_buffer(*buffer, buf.data(), ~0ull),
            Status::kBadAddress);
  // The daemon keeps serving the same connection.
  std::vector<std::uint8_t> data(8'192, 0x5a);
  ASSERT_EQ(process->write_buffer(*buffer, data.data(), data.size()),
            Status::kOk);
  ASSERT_EQ(process->read_buffer(*buffer, buf.data(), buf.size()),
            Status::kOk);
  EXPECT_EQ(buf, data);
  EXPECT_EQ(process->free_buffer(*buffer), Status::kOk);
  EXPECT_EQ(process->free_buffer(*first), Status::kOk);
}

TEST_F(CoiFixture, OffloadFromInsideVm) {
  // The whole COI client stack running over GuestScifProvider — offload
  // mode from a VM, the paper's compatibility claim one level up.
  BinaryImage image;
  image.name = "vm-offload.mic";
  image.bytes = 1 << 20;
  image.entry_kernel = "noop";
  sim::Actor actor{"guest-coi"};
  sim::ActorScope scope(actor);
  auto process = Process::create(bed_.vm(0).guest_scif(), bed_.card_node(),
                                 image, 2, {});
  ASSERT_TRUE(process);
  auto exited = process->wait_for_shutdown();
  ASSERT_TRUE(exited);
  EXPECT_EQ(exited->exit_code, 0);
}

// An initiator that closes while queued on the daemon's port fails the
// daemon's accept with kConnectionReset. The daemon keeps accepting: after
// 15 initiators give up, a connect is still served. 15 is under the
// daemon's backlog of 16, so the connect is queued even if the daemon has
// reached none of them yet; a daemon that stopped accepting leaves it
// waiting forever.
TEST_F(CoiFixture, DaemonServesAfterQueuedInitiatorsGiveUp) {
  auto& host = bed_.host_provider();
  const scif::PortId daemon{bed_.card_node(), kDaemonPort};
  for (int i = 0; i < 15; ++i) {
    auto epd = host.open();
    ASSERT_TRUE(epd);
    const auto ep = host.endpoint(*epd);
    std::atomic<bool> returned{false};
    std::thread initiator([&] {
      sim::Actor actor{"coi-quitter"};
      sim::ActorScope scope(actor);
      (void)host.connect(*epd, daemon);
      returned.store(true);
    });
    while (!returned.load() &&
           ep->state() != scif::Endpoint::State::kConnecting &&
           ep->state() != scif::Endpoint::State::kConnected) {
      std::this_thread::yield();
    }
    EXPECT_EQ(host.close(*epd), Status::kOk);
    initiator.join();
  }
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  auto epd = host.open();
  ASSERT_TRUE(epd);
  EXPECT_EQ(host.connect(*epd, daemon), Status::kOk);
  EXPECT_EQ(host.close(*epd), Status::kOk);
}

}  // namespace
}  // namespace vphi::coi

namespace vphi::workloads {
namespace {

TEST(Dgemm, BlockedMatchesNaive) {
  for (std::size_t n : {1ull, 7ull, 64ull, 129ull}) {
    std::vector<double> a(n * n), b(n * n), c_blocked(n * n), c_naive(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
      a[i] = static_cast<double>(i % 11) * 0.3 - 1.0;
      b[i] = static_cast<double>(i % 13) * 0.1 + 0.2;
    }
    dgemm_blocked(a.data(), b.data(), c_blocked.data(), n, 4);
    dgemm_naive(a.data(), b.data(), c_naive.data(), n);
    for (std::size_t i = 0; i < n * n; ++i) {
      ASSERT_NEAR(c_blocked[i], c_naive[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Dgemm, FlopsAndEfficiency) {
  EXPECT_DOUBLE_EQ(dgemm_flops(100), 2e6);
  EXPECT_LT(kernel_efficiency(64), kernel_efficiency(4'096));
  EXPECT_LT(kernel_efficiency(1 << 20), 0.92 + 1e-12);
}

TEST(Dgemm, MicTimeModelScalesAsNCubed) {
  mic::uos::Scheduler sched{sim::CostModel::paper()};
  const auto t1 = mic_dgemm_time(sched, 2'048, 224);
  const auto t2 = mic_dgemm_time(sched, 4'096, 224);
  const double ratio = static_cast<double>(t2) / static_cast<double>(t1);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 9.0);
}

TEST(Dgemm, MicTimeModelFasterWithMoreThreads) {
  mic::uos::Scheduler sched{sim::CostModel::paper()};
  const auto t56 = mic_dgemm_time(sched, 4'096, 56);
  const auto t112 = mic_dgemm_time(sched, 4'096, 112);
  const auto t224 = mic_dgemm_time(sched, 4'096, 224);
  EXPECT_GT(t56, t112);
  EXPECT_GT(t112, t224);
}

TEST(Dgemm, ImageCarriesMklDeps) {
  const auto image = make_dgemm_image(sim::CostModel::paper());
  EXPECT_EQ(image.entry_kernel, kDgemmKernelName);
  EXPECT_EQ(image.total_bytes(),
            sim::CostModel::paper().loadex_binary_bytes +
                sim::CostModel::paper().loadex_library_bytes);
  EXPECT_EQ(image.libraries.size(), 4u);
}

}  // namespace
}  // namespace vphi::workloads
