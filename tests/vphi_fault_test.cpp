// Fault-injection sweep over the vPHI transport.
//
// Every sim::FaultSite is exercised under both waiting schemes (interrupt,
// polling) and both backend execution modes (all-blocking, all-worker). Each
// test asserts three things:
//   1. the injected fault surfaces as the *right* sim::Status (or is healed
//      by the bounded retry of idempotent ops) — never a hang or a crash;
//   2. the fault is observable: injector fire counters plus the transport's
//      own error/timeout/retry/malformed statistics moved;
//   3. the transport heals: ring free descriptors, guest kmalloc accounting
//      and the frontend pending map return to their pre-fault state.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "sim/fault.hpp"
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
using sim::FaultSite;
using sim::Status;
using tools::Testbed;
using tools::TestbedConfig;

/// (waiting scheme, run every op on a worker thread?, pipeline window,
///  virtqueues per VM)
using FaultParam = std::tuple<WaitScheme, bool, int, int>;

class FaultSweepTest : public ::testing::TestWithParam<FaultParam> {
 protected:
  void SetUp() override {
    // Start every case from empty process-global observers: a gauge an
    // earlier case leaked (folded into the registry's retired values when
    // its testbed died) then fails only the case that leaked it.
    sim::metrics::registry().reset();
    sim::flight_recorder().clear();
    sim::tracer().clear();
    TestbedConfig cfg;
    cfg.frontend.scheme = std::get<0>(GetParam());
    cfg.frontend.request_timeout_ns = 50'000'000;  // 50 ms simulated
    // Window > 1 keeps several chunks of a stream/RMA walk in flight;
    // every fault must keep the same surface behavior as the serial walk.
    cfg.frontend.pipeline_window =
        static_cast<std::size_t>(std::get<2>(GetParam()));
    cfg.backend_policy.classify = std::get<1>(GetParam())
                                      ? BackendPolicy::all_worker()
                                      : BackendPolicy::all_blocking();
    // Multi-queue sweep: every fault surface must be identical whether the
    // VM runs one virtqueue or a sharded set (requests route by epd).
    cfg.num_queues = static_cast<std::uint16_t>(std::get<3>(GetParam()));
    cfg.start_coi_daemon = false;
    bed_ = std::make_unique<Testbed>(cfg);
    // Bind a caller actor anchored at the testbed's epoch (after the card's
    // 4 s simulated boot). A caller left at 0 — e.g. this thread's detached
    // fallback on a fresh process — lags the watermark by the whole boot
    // time, and the frontend's watermark-anchored deadline then swallows
    // injected delays smaller than that lag: DelayedKickMissesDeadline
    // failed when run standalone but passed inside the full suite, where
    // earlier tests had warmed the fallback clock up to the watermark.
    actor_.emplace("fault-guest", sim::Actor::AtNow{});
    scope_.emplace(*actor_);
  }

  void TearDown() override {
    sim::fault_injector().disarm_all();
    scope_.reset();
    actor_.reset();
    bed_.reset();
  }

  FrontendDriver& fe() { return bed_->vm(0).frontend(); }
  BackendDevice& be() { return bed_->vm(0).backend(); }
  hv::Vm& vm() { return bed_->vm(0).vm(); }
  GuestScifProvider& guest() { return bed_->vm(0).guest_scif(); }

  std::pair<int, int> guest_pair(scif::Port port) {
    auto lep = bed_->card_provider().open();
    EXPECT_TRUE(lep);
    EXPECT_TRUE(bed_->card_provider().bind(*lep, port));
    EXPECT_TRUE(sim::ok(bed_->card_provider().listen(*lep, 4)));
    auto server = std::async(std::launch::async, [this, lep = *lep] {
      sim::Actor a{"srv", sim::Actor::AtNow{}};
      sim::ActorScope scope(a);
      auto acc = bed_->card_provider().accept(lep, SCIF_ACCEPT_SYNC);
      return acc ? acc->epd : -1;
    });
    auto epd = guest().open();
    EXPECT_TRUE(epd);
    EXPECT_TRUE(
        sim::ok(guest().connect(*epd, PortId{bed_->card_node(), port})));
    return {*epd, server.get()};
  }

  struct Snapshot {
    std::uint32_t free_desc = 0;  ///< summed across all queues
    std::uint64_t live_allocs = 0;
    std::size_t pending = 0;
  };
  Snapshot snap() {
    std::uint32_t free_desc = 0;
    for (std::uint16_t q = 0; q < vm().num_queues(); ++q) {
      free_desc += vm().vq(q).free_descriptors();
    }
    return {free_desc, vm().ram().allocation_count(), fe().pending_requests()};
  }

  /// Sum of a gauge across every label (live + retired instruments).
  static std::int64_t gauge_sum(const std::string& name) {
    std::int64_t total = 0;
    for (const auto& [label, v] : sim::metrics::registry().gauge_by_label(name)) {
      total += v;
    }
    return total;
  }

  /// The healing invariant: once the frontend quiesces (the rescued chains
  /// of lost requests come back asynchronously), the ring, the guest
  /// allocator and the pending map are exactly where they were before the
  /// faulted request — and nothing is parked: the in-flight chain gauge and
  /// the zombie bounce-buffer gauge must both read zero (a request that
  /// died may not leave accounting behind).
  void expect_restored(const Snapshot& before) {
    sim::fault_injector().disarm_all();
    fe().quiesce();
    const Snapshot after = snap();
    EXPECT_EQ(after.free_desc, before.free_desc);
    EXPECT_EQ(after.live_allocs, before.live_allocs);
    EXPECT_EQ(after.pending, before.pending);
    EXPECT_EQ(gauge_sum("vphi.ring.inflight"), 0);
    EXPECT_EQ(gauge_sum("vphi.fe.zombie_chains"), 0);
  }

  std::unique_ptr<Testbed> bed_;
  std::optional<sim::Actor> actor_;
  std::optional<sim::ActorScope> scope_;
};

TEST_P(FaultSweepTest, KmallocEnomemSurfacesCleanly) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kKmallocNoMem, 1);
  EXPECT_EQ(guest().open().status(), Status::kNoMemory);
  EXPECT_GE(vm().ram().kmalloc_failures(), 1u);
  EXPECT_GE(fe().op_errors(Op::kOpen), 1u);
  EXPECT_EQ(fe().op_retries(Op::kOpen), 0u);  // ENOMEM is not transport loss
  expect_restored(before);
}

TEST_P(FaultSweepTest, DroppedKickTimesOutAndRetriesIdempotent) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kKickDrop, 1);
  auto epd = guest().open();
  EXPECT_TRUE(epd);  // the bounded retry heals the lost doorbell
  EXPECT_GE(vm().vq().dropped_kicks(), 1u);
  EXPECT_GE(fe().timeouts(), 1u);
  EXPECT_GE(fe().op_timeouts(Op::kOpen), 1u);
  EXPECT_GE(fe().op_retries(Op::kOpen), 1u);
  expect_restored(before);
}

TEST_P(FaultSweepTest, DroppedKickFailsNonIdempotentWithTimeout) {
  auto epd = guest().open();
  ASSERT_TRUE(epd);
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kKickDrop, 1);
  EXPECT_EQ(guest().close(*epd), Status::kTimedOut);
  EXPECT_GE(fe().op_timeouts(Op::kClose), 1u);
  EXPECT_EQ(fe().op_retries(Op::kClose), 0u);  // close must not be replayed
  expect_restored(before);
}

TEST_P(FaultSweepTest, DelayedKickMissesDeadlineAndRetries) {
  const auto before = snap();
  sim::FaultConfig cfg;
  cfg.nth = 1;
  cfg.max_fires = 1;
  cfg.delay_ns = 250'000'000;  // 5x the request timeout
  sim::fault_injector().arm(FaultSite::kKickDelay, cfg);
  auto epd = guest().open();
  EXPECT_TRUE(epd);
  EXPECT_GE(fe().timeouts(), 1u);
  EXPECT_GE(fe().op_retries(Op::kOpen), 1u);
  expect_restored(before);
}

TEST_P(FaultSweepTest, CorruptRequestRejectedByBackendValidator) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kCorruptRequestHeader, 1);
  EXPECT_EQ(guest().open().status(), Status::kInvalidArgument);
  EXPECT_GE(be().validation_failures(), 1u);
  expect_restored(before);
}

TEST_P(FaultSweepTest, CorruptResponseStatusCaughtAndRetried) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kCorruptResponseStatus, 1);
  auto epd = guest().open();
  EXPECT_TRUE(epd);
  EXPECT_GE(fe().protocol_errors(), 1u);
  EXPECT_GE(fe().op_retries(Op::kOpen), 1u);
  expect_restored(before);
}

TEST_P(FaultSweepTest, CorruptResponseRetRejectedAtOpLayer) {
  auto [guest_epd, card_epd] = guest_pair(7'000);
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kCorruptResponseRet, 1);
  std::uint8_t buf[32] = {};
  EXPECT_EQ(guest().send(guest_epd, buf, sizeof(buf), SCIF_SEND_BLOCK).status(),
            Status::kIoError);
  expect_restored(before);
  (void)card_epd;
}

TEST_P(FaultSweepTest, ShortUsedWriteCaughtAndRetried) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kShortUsedWrite, 1);
  auto ids = guest().get_node_ids();
  EXPECT_TRUE(ids);  // idempotent op healed by retry
  EXPECT_GE(fe().protocol_errors(), 1u);
  EXPECT_GE(fe().op_retries(Op::kGetNodeIds), 1u);
  expect_restored(before);
}

TEST_P(FaultSweepTest, TruncatedChainRejectedAndRetried) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kTruncateChain, 1);
  auto epd = guest().open();
  EXPECT_TRUE(epd);
  EXPECT_GE(vm().vq().truncated_chains(), 1u);
  EXPECT_GE(be().malformed_chains(), 1u);
  EXPECT_GE(fe().protocol_errors(), 1u);  // the zero-length used entry
  expect_restored(before);
}

TEST_P(FaultSweepTest, CyclicChainAnsweredWithErrorNotSpun) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kCycleChain, 1);
  // A cyclic chain yields a well-formed error response, not a retry (the
  // response-level kIoError is the backend talking, not transport loss).
  EXPECT_EQ(guest().open().status(), Status::kIoError);
  EXPECT_GE(vm().vq().poisoned_chains(), 1u);
  EXPECT_GE(be().poisoned_chains(), 1u);
  expect_restored(before);
  // The transport must remain fully usable afterwards.
  EXPECT_TRUE(guest().open());
}

/// Zero-copy sg-list fault fixture: a registered guest window + a card-side
/// device window, so readfrom rides the prebuilt-sg path the fault sites
/// perturb.
class SgFaultTest : public FaultSweepTest {
 protected:
  void SetUp() override {
    FaultSweepTest::SetUp();
    std::tie(guest_epd_, card_epd_) = guest_pair(7'200);
    auto dev_off = bed_->card().memory().allocate(kWinBytes);
    ASSERT_TRUE(dev_off);
    auto reg = bed_->card_provider().register_mem(
        card_epd_, bed_->card().memory().at(*dev_off), kWinBytes, 0,
        scif::SCIF_PROT_READ | scif::SCIF_PROT_WRITE, 0);
    ASSERT_TRUE(reg);
    remote_off_ = *reg;
    auto buf = bed_->vm(0).alloc_user_buffer(kWinBytes);
    ASSERT_TRUE(buf);
    auto lreg = guest().register_mem(guest_epd_, *buf, kWinBytes, 0,
                                     scif::SCIF_PROT_READ |
                                         scif::SCIF_PROT_WRITE,
                                     0);
    ASSERT_TRUE(lreg);
    local_off_ = *lreg;
  }

  static constexpr std::size_t kWinBytes = 1ull << 20;
  int guest_epd_ = -1, card_epd_ = -1;
  scif::RegOffset remote_off_ = 0, local_off_ = 0;
};

TEST_P(SgFaultTest, MisalignedSgEntryRejectedByValidator) {
  // Sanity: the zero-copy path works before the fault.
  ASSERT_EQ(guest().readfrom(guest_epd_, local_off_, kWinBytes, remote_off_,
                             scif::SCIF_RMA_SYNC),
            Status::kOk);
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kSgMisalign, 1);
  // The injector knocks one sg gpa off page alignment; the backend's
  // geometry validator must answer kInvalidArgument — never program a DMA
  // from an unaligned guest-physical address.
  EXPECT_EQ(guest().readfrom(guest_epd_, local_off_, kWinBytes, remote_off_,
                             scif::SCIF_RMA_SYNC),
            Status::kInvalidArgument);
  EXPECT_GE(be().validation_failures(), 1u);
  expect_restored(before);
  // The transport (and the window) remain fully usable afterwards.
  EXPECT_EQ(guest().readfrom(guest_epd_, local_off_, kWinBytes, remote_off_,
                             scif::SCIF_RMA_SYNC),
            Status::kOk);
}

TEST_P(SgFaultTest, OverflowingSgEntryRejectedByValidator) {
  const auto before = snap();
  sim::fault_injector().arm_nth(FaultSite::kSgLenOverflow, 1);
  // The injector grows the last sg entry one page past the request length;
  // the validator's subtractive length cap must catch it.
  EXPECT_EQ(guest().readfrom(guest_epd_, local_off_, kWinBytes, remote_off_,
                             scif::SCIF_RMA_SYNC),
            Status::kInvalidArgument);
  EXPECT_GE(be().validation_failures(), 1u);
  expect_restored(before);
  EXPECT_EQ(guest().writeto(guest_epd_, local_off_, kWinBytes, remote_off_,
                            scif::SCIF_RMA_SYNC),
            Status::kOk);
}

const auto kFaultParamName =
    [](const ::testing::TestParamInfo<FaultParam>& param_info) {
      return std::string(wait_scheme_name(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_worker" : "_blocking") +
             "_w" + std::to_string(std::get<2>(param_info.param)) + "_q" +
             std::to_string(std::get<3>(param_info.param));
    };

INSTANTIATE_TEST_SUITE_P(
    SchemesAndModes, FaultSweepTest,
    ::testing::Combine(::testing::Values(WaitScheme::kInterrupt,
                                         WaitScheme::kPolling),
                       ::testing::Bool(), ::testing::Values(1, 4),
                       ::testing::Values(1, 4)),
    kFaultParamName);

INSTANTIATE_TEST_SUITE_P(
    SchemesAndModes, SgFaultTest,
    ::testing::Combine(::testing::Values(WaitScheme::kInterrupt,
                                         WaitScheme::kPolling),
                       ::testing::Bool(), ::testing::Values(1, 4),
                       ::testing::Values(1, 4)),
    kFaultParamName);

}  // namespace
}  // namespace vphi::core
