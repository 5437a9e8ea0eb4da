// Unit + property tests for the virtio split virtqueue and device status.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "tools/testbed.hpp"
#include "virtio/device.hpp"
#include "virtio/ring.hpp"

namespace vphi::virtio {
namespace {

/// Flat "guest memory" backing for ring tests.
class FlatMem {
 public:
  explicit FlatMem(std::size_t size) : mem_(size) {}

  MemTranslate translator() {
    return [this](std::uint64_t gpa, std::uint32_t len) -> void* {
      if (gpa + len > mem_.size()) return nullptr;
      return mem_.data() + gpa;
    };
  }
  std::uint8_t* at(std::uint64_t gpa) { return mem_.data() + gpa; }

 private:
  std::vector<std::uint8_t> mem_;
};

/// The device side of one doorbell, as the backend sees it: wait for it
/// and take the batch it covers, here exactly one chain. nullopt once the
/// ring shut down.
std::optional<Chain> pop_one(Virtqueue& vq) {
  std::vector<Chain> batch = vq.pop_avail_batch();
  if (batch.empty()) return std::nullopt;
  EXPECT_EQ(batch.size(), 1u);
  return std::move(batch.front());
}

// A published chain is stranded until a doorbell reaches the device: a
// dropped kick leaves it so (the watchdog's stall signal), a delivered one
// or the device consuming it clears it.
TEST(Virtqueue, StrandedUntilDoorbellDelivered) {
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  BufferRef out{0, 8};
  ASSERT_TRUE(vq.add_buf({&out, 1}, {}));
  EXPECT_TRUE(vq.stranded(0));   // published, no doorbell yet
  EXPECT_FALSE(vq.stranded(1));  // not published

  sim::fault_injector().arm_nth(sim::FaultSite::kKickDrop, 1);
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kLost);
  sim::fault_injector().disarm_all();
  EXPECT_TRUE(vq.stranded(0));  // the doorbell never arrived

  vq.kick(20);  // rescue kick
  EXPECT_FALSE(vq.stranded(0));
  ASSERT_TRUE(vq.add_buf({&out, 1}, {}));
  EXPECT_TRUE(vq.stranded(1));
  ASSERT_TRUE(vq.try_pop_avail());
  ASSERT_TRUE(vq.try_pop_avail());
  EXPECT_FALSE(vq.stranded(1));  // the device consumed it unprompted
}

// A freed descriptor carries the completion time that freed it, but only
// into another submitter's clock: a vCPU reusing its own slots keeps its
// timing, one taking a slot another vCPU freed waits for that completion.
TEST(Virtqueue, ReuseWaitsForAnotherSubmittersCompletion) {
  FlatMem mem{4'096};
  Virtqueue vq{2, mem.translator()};
  const sim::Actor a{"vcpu-a"};
  const sim::Actor b{"vcpu-b"};
  BufferRef out{0, 8};
  auto head = vq.add_buf({&out, 1}, {}, 0, 0, &a);
  ASSERT_TRUE(head);
  EXPECT_EQ(vq.reuse_ts(1, &b), 0u) << "never-used descriptors are free";

  ASSERT_TRUE(vq.try_pop_avail());
  ASSERT_TRUE(sim::ok(vq.push_used(*head, 0, 7'000)));
  ASSERT_TRUE(vq.get_used());
  ASSERT_EQ(vq.free_descriptors(), 2);
  // The free list hands out the freed descriptor first, then the unused one.
  EXPECT_EQ(vq.reuse_ts(1, &a), 0u);
  EXPECT_EQ(vq.reuse_ts(1, &b), 7'000u);
  EXPECT_EQ(vq.reuse_ts(2, &b), 7'000u);
  EXPECT_EQ(vq.reuse_ts(3, &b), 0u) << "more than are free";
}

TEST(Virtqueue, PostPopCompleteRoundtrip) {
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  std::memcpy(mem.at(0), "request!", 8);

  BufferRef out{0, 8};
  BufferRef in{100, 16};
  auto head = vq.add_buf({&out, 1}, {&in, 1});
  ASSERT_TRUE(head);
  EXPECT_EQ(vq.free_descriptors(), 6);
  vq.kick(1'000);

  auto chain = pop_one(vq);
  ASSERT_TRUE(chain);
  EXPECT_EQ(chain->head, *head);
  EXPECT_EQ(chain->kick_ts, 1'000u);
  ASSERT_EQ(chain->segments.size(), 2u);
  EXPECT_FALSE(chain->segments[0].device_writes);
  EXPECT_TRUE(chain->segments[1].device_writes);
  EXPECT_EQ(chain->writable_bytes(), 16u);
  EXPECT_EQ(std::memcmp(chain->segments[0].ptr, "request!", 8), 0);

  // Device writes a response in place (zero copy) and completes.
  std::memcpy(chain->segments[1].ptr, "response", 8);
  ASSERT_EQ(vq.push_used(chain->head, 8, 2'000), sim::Status::kOk);

  auto used = vq.get_used();
  ASSERT_TRUE(used);
  EXPECT_EQ(used->id, *head);
  EXPECT_EQ(used->len, 8u);
  EXPECT_EQ(used->ts, 2'000u);
  EXPECT_EQ(std::memcmp(mem.at(100), "response", 8), 0);
  EXPECT_EQ(vq.free_descriptors(), 8) << "chain descriptors recycled";
}

TEST(Virtqueue, ExhaustionReturnsNoSpace) {
  FlatMem mem{4'096};
  Virtqueue vq{4, mem.translator()};
  BufferRef r{0, 1};
  std::vector<std::uint16_t> heads;
  for (int i = 0; i < 4; ++i) {
    auto h = vq.add_buf({&r, 1}, {});
    ASSERT_TRUE(h);
    heads.push_back(*h);
  }
  EXPECT_EQ(vq.add_buf({&r, 1}, {}).status(), sim::Status::kNoSpace);
  // Complete one, slot frees up.
  vq.kick(0);
  auto chain = vq.try_pop_avail();
  ASSERT_TRUE(chain);
  ASSERT_EQ(vq.push_used(chain->head, 0, 0), sim::Status::kOk);
  ASSERT_TRUE(vq.get_used());
  EXPECT_TRUE(vq.add_buf({&r, 1}, {}));
}

TEST(Virtqueue, ChainTooLongRejectedAtomically) {
  FlatMem mem{4'096};
  Virtqueue vq{4, mem.translator()};
  std::vector<BufferRef> refs(5, BufferRef{0, 1});
  EXPECT_EQ(vq.add_buf({refs.data(), 5}, {}).status(), sim::Status::kNoSpace);
  EXPECT_EQ(vq.free_descriptors(), 4) << "failed add leaks nothing";
  EXPECT_EQ(vq.add_buf({}, {}).status(), sim::Status::kInvalidArgument);
}

TEST(Virtqueue, FifoOrderPreserved) {
  FlatMem mem{4'096};
  Virtqueue vq{16, mem.translator()};
  std::vector<std::uint16_t> heads;
  for (std::uint32_t i = 0; i < 5; ++i) {
    BufferRef r{i * 8, 8};
    auto h = vq.add_buf({&r, 1}, {});
    ASSERT_TRUE(h);
    heads.push_back(*h);
  }
  vq.kick(0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto chain = vq.try_pop_avail();
    ASSERT_TRUE(chain);
    EXPECT_EQ(chain->head, heads[i]);
  }
  EXPECT_FALSE(vq.try_pop_avail());
}

TEST(Virtqueue, TranslationFailureYieldsNullSegment) {
  FlatMem mem{64};
  Virtqueue vq{4, mem.translator()};
  BufferRef bogus{1'000'000, 8};
  ASSERT_TRUE(vq.add_buf({&bogus, 1}, {}));
  vq.kick(0);
  auto chain = vq.try_pop_avail();
  ASSERT_TRUE(chain);
  EXPECT_EQ(chain->segments[0].ptr, nullptr)
      << "backend must detect unmapped guest addresses";
}

TEST(Virtqueue, ShutdownUnblocksDevice) {
  FlatMem mem{64};
  Virtqueue vq{4, mem.translator()};
  std::optional<Chain> got = Chain{};
  std::thread device([&] { got = pop_one(vq); });
  vq.shutdown();
  device.join();
  EXPECT_FALSE(got.has_value());
}

TEST(Virtqueue, CrossThreadPipelineKeepsDataIntact) {
  FlatMem mem{1 << 16};
  Virtqueue vq{32, mem.translator()};
  constexpr int kMsgs = 200;
  constexpr std::uint32_t kMsgLen = 64;

  std::thread device([&] {
    for (int i = 0; i < kMsgs; ++i) {
      auto chain = pop_one(vq);
      ASSERT_TRUE(chain);
      ASSERT_EQ(chain->segments.size(), 2u);
      // Echo request into response segment.
      std::memcpy(chain->segments[1].ptr, chain->segments[0].ptr, kMsgLen);
      ASSERT_EQ(vq.push_used(chain->head, kMsgLen, chain->kick_ts + 10),
                sim::Status::kOk);
    }
  });

  sim::Rng rng{5};
  for (int i = 0; i < kMsgs; ++i) {
    const std::uint64_t req_gpa = 0;
    const std::uint64_t rsp_gpa = 4'096;
    rng.fill(mem.at(req_gpa), kMsgLen);
    BufferRef out{req_gpa, kMsgLen};
    BufferRef in{rsp_gpa, kMsgLen};
    auto head = vq.add_buf({&out, 1}, {&in, 1});
    ASSERT_TRUE(head);
    vq.kick(static_cast<sim::Nanos>(i));
    // Wait for the echo.
    std::optional<UsedElem> used;
    while (!(used = vq.get_used())) std::this_thread::yield();
    EXPECT_EQ(used->id, *head);
    EXPECT_EQ(std::memcmp(mem.at(req_gpa), mem.at(rsp_gpa), kMsgLen), 0);
  }
  device.join();
}

// Ring-invariant property sweep: random post/complete interleavings never
// leak descriptors and used ids always match posted heads.
class RingChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingChurnTest, DescriptorAccountingExact) {
  FlatMem mem{1 << 16};
  Virtqueue vq{16, mem.translator()};
  sim::Rng rng{GetParam()};
  std::vector<std::uint16_t> outstanding;

  for (int step = 0; step < 500; ++step) {
    if (outstanding.empty() || (rng.uniform() < 0.55 && vq.free_descriptors() >= 3)) {
      std::vector<BufferRef> out(1 + rng.below(2), BufferRef{0, 16});
      BufferRef in{256, 16};
      auto head = vq.add_buf({out.data(), out.size()}, {&in, 1});
      if (!head) continue;
      vq.kick(static_cast<sim::Nanos>(step));
      outstanding.push_back(*head);
    } else {
      auto chain = vq.try_pop_avail();
      if (!chain) continue;
      ASSERT_EQ(vq.push_used(chain->head, 4, 0), sim::Status::kOk);
      auto used = vq.get_used();
      ASSERT_TRUE(used);
      ASSERT_EQ(used->id, chain->head);
      auto it = std::find(outstanding.begin(), outstanding.end(),
                          static_cast<std::uint16_t>(used->id));
      ASSERT_NE(it, outstanding.end()) << "used id was never posted";
      outstanding.erase(it);
    }
  }
  // Drain everything; the free list must return to full.
  while (auto chain = vq.try_pop_avail()) {
    ASSERT_EQ(vq.push_used(chain->head, 0, 0), sim::Status::kOk);
    ASSERT_TRUE(vq.get_used());
  }
  EXPECT_EQ(vq.free_descriptors(), 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingChurnTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- EVENT_IDX notification suppression (virtio 1.0 sec 2.6.7) --------------

TEST(Virtqueue, EventIdxSuppressesKicksWhileDoorbellPending) {
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  vq.set_event_idx(true);
  BufferRef out{0, 8};

  // First publish from idle: the device armed avail_event at its consumption
  // point, so the doorbell is needed (the idle->busy edge is never elided).
  auto h1 = vq.add_buf({&out, 1}, {}, 10);
  ASSERT_TRUE(h1);
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kRing);
  vq.kick(100);

  // Second publish while that doorbell is still pending: the device has not
  // re-armed past it, so the kick is suppressed — the burst rides the first
  // entry's doorbell.
  auto h2 = vq.add_buf({&out, 1}, {}, 20);
  ASSERT_TRUE(h2);
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kSuppressed);
  EXPECT_EQ(vq.suppressed_kicks(), 1u);

  // The suppressed chain is still drained: one wakeup, both chains.
  auto batch = vq.pop_avail_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].head, *h1);
  EXPECT_EQ(batch[1].head, *h2);
  // The suppressed entry's visibility is bounded by the covering doorbell.
  EXPECT_GE(batch[1].kick_ts, 100);

  // Back to idle: the device re-armed at its new consumption point inside
  // the drain, so the next publish needs a doorbell again.
  auto h3 = vq.add_buf({&out, 1}, {}, 30);
  ASSERT_TRUE(h3);
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kRing);
  EXPECT_EQ(vq.suppressed_kicks(), 1u);
}

// EVENT_IDX suppresses every kick behind a pending doorbell, so when that
// doorbell is lost the entries that rode on it are stranded with it — until
// a delivered kick covers them all.
TEST(Virtqueue, EventIdxLostDoorbellStrandsTheEntriesBehindIt) {
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  vq.set_event_idx(true);
  BufferRef out{0, 8};
  sim::fault_injector().arm_nth(sim::FaultSite::kKickDrop, 1);
  ASSERT_TRUE(vq.add_buf({&out, 1}, {}, 10));
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kLost);
  sim::fault_injector().disarm_all();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(vq.add_buf({&out, 1}, {}, 20 + i));
    EXPECT_EQ(vq.kick_prepare(), Doorbell::kSuppressed);
  }
  EXPECT_EQ(vq.dropped_kicks(), 1u);
  EXPECT_EQ(vq.suppressed_kicks(), 3u);
  for (std::uint16_t pos = 0; pos < 4; ++pos) {
    EXPECT_TRUE(vq.stranded(pos)) << "entry " << pos;
  }

  vq.kick(100);  // a delivered (rescue) kick covers the whole burst
  for (std::uint16_t pos = 0; pos < 4; ++pos) {
    EXPECT_FALSE(vq.stranded(pos)) << "entry " << pos;
  }
  EXPECT_EQ(vq.pop_avail_batch().size(), 4u);

  // Delivered from here on: the next burst's suppressed entries ride a
  // doorbell that arrived, so none of them strands.
  ASSERT_TRUE(vq.add_buf({&out, 1}, {}, 200));
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kRing);
  ASSERT_TRUE(vq.add_buf({&out, 1}, {}, 210));
  EXPECT_EQ(vq.kick_prepare(), Doorbell::kSuppressed);
  EXPECT_FALSE(vq.stranded(4));
  EXPECT_FALSE(vq.stranded(5));
}

// Two vCPUs race their submits on one queue, each request with a deadline,
// while one doorbell is lost. Whichever chains rode it (the dropping vCPU's
// own, and any the other vCPU's suppressed prepare left behind it) are
// stranded, so their waiters time out instead of sleeping forever; the
// idempotent retry heals every call, and every descriptor comes back.
TEST(Virtqueue, LostDoorbellOnASharedQueueHangsNoWaiter) {
  for (const auto scheme :
       {core::WaitScheme::kInterrupt, core::WaitScheme::kPolling}) {
    SCOPED_TRACE(core::wait_scheme_name(scheme));
    tools::TestbedConfig cfg;
    cfg.frontend.scheme = scheme;
    cfg.frontend.request_timeout_ns = 50'000'000;  // 50 ms simulated
    cfg.start_coi_daemon = false;
    tools::Testbed bed{cfg};
    Virtqueue& vq = bed.vm(0).vm().vq();
    const std::uint16_t free_before = vq.free_descriptors();

    sim::fault_injector().arm_nth(sim::FaultSite::kKickDrop, 1);
    std::atomic<int> ready{0};
    const auto vcpu = [&bed, &ready](const char* name) {
      sim::Actor actor{name, sim::Actor::AtNow{}};
      sim::ActorScope scope(actor);
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      int ok = 0;
      for (int i = 0; i < 4; ++i) {
        if (bed.vm(0).guest_scif().get_node_ids()) ++ok;
      }
      return ok;
    };
    auto a = std::async(std::launch::async, vcpu, "vcpu-a");
    auto b = std::async(std::launch::async, vcpu, "vcpu-b");
    EXPECT_EQ(a.get(), 4);
    EXPECT_EQ(b.get(), 4);
    sim::fault_injector().disarm_all();
    EXPECT_EQ(vq.dropped_kicks(), 1u);

    bed.vm(0).frontend().quiesce();
    EXPECT_EQ(vq.free_descriptors(), free_before);
    EXPECT_EQ(bed.vm(0).frontend().pending_requests(), 0u);
  }
}

TEST(Virtqueue, EventIdxCoalescesInterruptsPerBatch) {
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  vq.set_event_idx(true);
  BufferRef out{0, 8};
  auto h1 = vq.add_buf({&out, 1}, {}, 0);
  auto h2 = vq.add_buf({&out, 1}, {}, 0);
  ASSERT_TRUE(h1);
  ASSERT_TRUE(h2);
  vq.kick(50);
  auto batch = vq.pop_avail_batch();
  ASSERT_EQ(batch.size(), 2u);

  // First completion of the batch crosses used_event -> interrupt.
  ASSERT_EQ(vq.push_used(*h1, 0, 200), sim::Status::kOk);
  EXPECT_TRUE(vq.should_interrupt());
  // Second completion before the driver re-armed -> coalesced.
  ASSERT_EQ(vq.push_used(*h2, 0, 210), sim::Status::kOk);
  EXPECT_FALSE(vq.should_interrupt());
  EXPECT_EQ(vq.suppressed_irqs(), 1u);

  // One IRQ, two completions drained.
  EXPECT_TRUE(vq.get_used());
  EXPECT_TRUE(vq.get_used());
  EXPECT_FALSE(vq.get_used());
  // Re-arm with nothing pending: clean, no forced re-drain.
  EXPECT_FALSE(vq.arm_used_event());

  // Next completion after the re-arm gets its own interrupt (busy->idle->
  // busy edge is never suppressed).
  auto h3 = vq.add_buf({&out, 1}, {}, 0);
  ASSERT_TRUE(h3);
  vq.kick(300);
  ASSERT_EQ(vq.pop_avail_batch().size(), 1u);
  ASSERT_EQ(vq.push_used(*h3, 0, 400), sim::Status::kOk);
  EXPECT_TRUE(vq.should_interrupt());
  EXPECT_EQ(vq.suppressed_irqs(), 1u);
}

TEST(Virtqueue, ArmUsedEventReportsRacedCompletion) {
  // The classic lost-wakeup edge: a completion lands while the driver is
  // between "drained everything" and "armed used_event". arm_used_event
  // must report the pending entry so the driver re-drains instead of
  // sleeping through a suppressed interrupt.
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  vq.set_event_idx(true);
  BufferRef out{0, 8};
  auto h1 = vq.add_buf({&out, 1}, {}, 0);
  ASSERT_TRUE(h1);
  vq.kick(10);
  ASSERT_EQ(vq.pop_avail_batch().size(), 1u);
  ASSERT_EQ(vq.push_used(*h1, 0, 100), sim::Status::kOk);

  // Driver has not drained yet: the arm must report pending work.
  EXPECT_TRUE(vq.arm_used_event());
  EXPECT_TRUE(vq.get_used());
  EXPECT_FALSE(vq.arm_used_event());
}

TEST(Virtqueue, EventIdxOffNeverSuppresses) {
  FlatMem mem{4'096};
  Virtqueue vq{8, mem.translator()};
  BufferRef out{0, 8};
  for (int i = 0; i < 3; ++i) {
    auto h = vq.add_buf({&out, 1}, {}, 0);
    ASSERT_TRUE(h);
    // Legacy behavior: every publish wants a doorbell, every completion an
    // interrupt.
    EXPECT_EQ(vq.kick_prepare(), Doorbell::kRing);
    vq.kick(i * 10);
    auto chain = vq.try_pop_avail();
    ASSERT_TRUE(chain);
    ASSERT_EQ(vq.push_used(chain->head, 0, i * 10 + 5), sim::Status::kOk);
    EXPECT_TRUE(vq.should_interrupt());
    EXPECT_TRUE(vq.get_used());
  }
  EXPECT_FALSE(vq.arm_used_event());  // no-op with EVENT_IDX off
  EXPECT_EQ(vq.suppressed_kicks(), 0u);
  EXPECT_EQ(vq.suppressed_irqs(), 0u);
}

TEST(DeviceStatus, HandshakeSucceeds) {
  DeviceStatus status{VIRTIO_F_VERSION_1 | VPHI_F_SCIF};
  status.set(VIRTIO_STATUS_ACKNOWLEDGE);
  status.set(VIRTIO_STATUS_DRIVER);
  EXPECT_TRUE(status.negotiate(VIRTIO_F_VERSION_1 | VPHI_F_SCIF));
  status.set(VIRTIO_STATUS_DRIVER_OK);
  EXPECT_TRUE(status.driver_ok());
  EXPECT_FALSE(status.failed());
  EXPECT_EQ(status.accepted_features(), VIRTIO_F_VERSION_1 | VPHI_F_SCIF);
}

TEST(DeviceStatus, UnofferedFeatureFailsNegotiation) {
  DeviceStatus status{VPHI_F_SCIF};
  EXPECT_FALSE(status.negotiate(VPHI_F_SCIF | VPHI_F_MMAP_PFN));
  EXPECT_TRUE(status.failed());
}

TEST(DeviceStatus, ResetClearsState) {
  DeviceStatus status{VPHI_F_SCIF};
  ASSERT_TRUE(status.negotiate(VPHI_F_SCIF));
  status.reset();
  EXPECT_FALSE(status.has(VIRTIO_STATUS_FEATURES_OK));
  EXPECT_EQ(status.accepted_features(), 0u);
}

}  // namespace
}  // namespace vphi::virtio
