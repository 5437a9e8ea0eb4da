// Unit tests for the Xeon Phi card model: device memory arena, sysfs
// identity, uOS scheduler, card lifecycle.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mic/card.hpp"
#include "mic/device_memory.hpp"
#include "mic/sysfs.hpp"
#include "mic/uos.hpp"
#include "sim/cost_model.hpp"
#include "sim/rng.hpp"

namespace vphi::mic {
namespace {

using sim::CostModel;

TEST(DeviceMemory, AllocateFreeRoundtrip) {
  DeviceMemory mem{1 << 20};
  auto a = mem.allocate(10'000);
  ASSERT_TRUE(a);
  EXPECT_EQ(*a % DeviceMemory::kPageSize, 0u);
  EXPECT_EQ(mem.used(), 12'288u) << "rounded to pages";
  EXPECT_EQ(mem.free(*a), sim::Status::kOk);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemory, ExhaustionReturnsNoMemory) {
  DeviceMemory mem{64 * 1024};
  auto a = mem.allocate(60 * 1024);
  ASSERT_TRUE(a);
  auto b = mem.allocate(8 * 1024);
  EXPECT_EQ(b.status(), sim::Status::kNoMemory);
}

TEST(DeviceMemory, CoalescingAllowsReuse) {
  DeviceMemory mem{64 * 1024};
  auto a = mem.allocate(16 * 1024);
  auto b = mem.allocate(16 * 1024);
  auto c = mem.allocate(16 * 1024);
  ASSERT_TRUE(a && b && c);
  // Free middle, then neighbours: must coalesce back into one span.
  EXPECT_EQ(mem.free(*b), sim::Status::kOk);
  EXPECT_EQ(mem.free(*a), sim::Status::kOk);
  EXPECT_EQ(mem.free(*c), sim::Status::kOk);
  auto big = mem.allocate(64 * 1024);
  EXPECT_TRUE(big) << "full capacity reusable after coalescing";
}

TEST(DeviceMemory, FreeOfUnknownOffsetRejected) {
  DeviceMemory mem{64 * 1024};
  EXPECT_EQ(mem.free(0), sim::Status::kInvalidArgument);
  auto a = mem.allocate(4'096);
  ASSERT_TRUE(a);
  EXPECT_EQ(mem.free(*a + 1), sim::Status::kInvalidArgument);
}

TEST(DeviceMemory, CoversChecksAllocatedRanges) {
  DeviceMemory mem{1 << 20};
  auto a = mem.allocate(8'192);
  ASSERT_TRUE(a);
  EXPECT_TRUE(mem.covers(*a, 8'192));
  EXPECT_TRUE(mem.covers(*a + 100, 100));
  EXPECT_FALSE(mem.covers(*a, 8'193));
  EXPECT_FALSE(mem.covers(*a + 8'192, 1));
}

TEST(DeviceMemory, CoversRejectsWrappingLength) {
  // COI clients pass lengths straight through to covers(); offset + len
  // must not wrap around into a "covered" range.
  DeviceMemory mem{1 << 20};
  auto a = mem.allocate(8'192);
  ASSERT_TRUE(a);
  EXPECT_FALSE(mem.covers(*a, ~0ull));
  EXPECT_FALSE(mem.covers(*a + 8, ~0ull - 7));
  EXPECT_FALSE(mem.covers(*a + 16'384, 0)) << "past the block's end";
}

TEST(DeviceMemory, DataIsReadableThroughAt) {
  DeviceMemory mem{1 << 20};
  auto a = mem.allocate(4'096);
  ASSERT_TRUE(a);
  sim::Rng rng{3};
  std::vector<std::uint8_t> pattern(4'096);
  rng.fill(pattern.data(), pattern.size());
  std::memcpy(mem.at(*a), pattern.data(), pattern.size());
  EXPECT_EQ(std::memcmp(mem.at(*a), pattern.data(), pattern.size()), 0);
  EXPECT_EQ(mem.at(mem.capacity()), nullptr);
}

TEST(DeviceMemory, ZeroLengthAllocationRejected) {
  DeviceMemory mem{1 << 20};
  EXPECT_EQ(mem.allocate(0).status(), sim::Status::kInvalidArgument);
}

TEST(Sysfs, The3120PIdentity) {
  auto info = SysfsInfo::for_3120p(0);
  EXPECT_EQ(info.get("family").value(), "Knights Corner");
  EXPECT_EQ(info.get("sku").value(), "3120P");
  EXPECT_EQ(info.get_u64("cores_count").value(), 57u);
  EXPECT_EQ(info.get_u64("memsize_mb").value(), 6'144u);
  EXPECT_FALSE(info.get("nonexistent").has_value());
  EXPECT_FALSE(info.get_u64("family").has_value()) << "non-numeric";
  EXPECT_EQ(info.entries().at("sku"), "3120P");
}

TEST(Uos, TopologyFrom3120P) {
  uos::Scheduler sched{CostModel::paper()};
  EXPECT_EQ(sched.usable_cores(), 56u);
  EXPECT_EQ(sched.usable_cores() * CostModel::paper().mic_threads_per_core,
            224u);
}

TEST(Uos, SingleThreadPerCoreIsHalfIssueRate) {
  // KNC's headline property: one thread/core can only reach ~50% of peak.
  uos::Scheduler sched{CostModel::paper()};
  const double r1 = sched.core_flops_rate(1);
  const double r2 = sched.core_flops_rate(2);
  const auto& m = CostModel::paper();
  EXPECT_DOUBLE_EQ(r1, m.mic_core_hz * m.mic_flops_per_cycle * 0.50);
  EXPECT_GT(r2, 1.5 * r1) << "two threads nearly double the issue rate";
}

TEST(Uos, AggregateRateGrowsWithThreads) {
  uos::Scheduler sched{CostModel::paper()};
  const double r56 = sched.aggregate_flops_rate(56);
  const double r112 = sched.aggregate_flops_rate(112);
  const double r224 = sched.aggregate_flops_rate(224);
  EXPECT_GT(r112, r56);
  EXPECT_GT(r224, r112);
  // 224 threads approach the card's practical peak (~1 TF for a 3120P).
  EXPECT_NEAR(r224 / 1e12, 0.94, 0.05);
}

TEST(Uos, MakespanScalesInverselyWithRate) {
  uos::Scheduler sched{CostModel::paper()};
  const double flops = 2.0 * 1e12;
  const auto t56 = sched.compute_makespan(flops, 56);
  const auto t224 = sched.compute_makespan(flops, 224);
  EXPECT_GT(t56, t224);
  EXPECT_EQ(sched.compute_makespan(0.0, 56), 0u);
  EXPECT_EQ(sched.compute_makespan(flops, 0), 0u);
}

TEST(Uos, OversubscriptionDegradesGracefully) {
  uos::Scheduler sched{CostModel::paper()};
  const double flops = 1e12;
  const auto t224 = sched.compute_makespan(flops, 224);
  const auto t448 = sched.compute_makespan(flops, 448);
  const auto t896 = sched.compute_makespan(flops, 896);
  // More threads than hw contexts cannot go faster, only slightly slower
  // (context-switch tax).
  EXPECT_GE(t448, t224);
  EXPECT_GE(t896, t448);
  EXPECT_LT(static_cast<double>(t896), 1.10 * static_cast<double>(t224))
      << "RR multiplexing should not collapse throughput";
}

TEST(Uos, UnbalancedPlacementGovernedBySlowestCore) {
  uos::Scheduler sched{CostModel::paper()};
  // 57 threads on 56 cores: one core runs 2 threads; makespan must exceed
  // the 56-thread case even though aggregate rate is higher.
  const double flops = 1e12;
  EXPECT_GT(sched.compute_makespan(flops, 57), sched.compute_makespan(flops, 56));
}

TEST(Uos, SpawnAndExecCosts) {
  uos::Scheduler sched{CostModel::paper()};
  const auto& m = CostModel::paper();
  EXPECT_EQ(sched.spawn_cost(224), 224u * m.uos_spawn_thread_ns);
  EXPECT_EQ(sched.exec_cost(), m.uos_exec_setup_ns);
}

TEST(Card, BootBringsCardOnline) {
  Card card{{.index = 0, .memory_backing_bytes = 1 << 20}, CostModel::paper()};
  EXPECT_FALSE(card.online());
  card.boot();
  EXPECT_TRUE(card.online());
  EXPECT_EQ(card.sysfs().get("state").value(), "online");
  const auto t = card.card_actor().now();
  card.boot();  // idempotent
  EXPECT_EQ(card.card_actor().now(), t);
}

TEST(Card, ComponentsWired) {
  Card card{{.index = 3, .memory_backing_bytes = 1 << 20}, CostModel::paper()};
  EXPECT_EQ(card.index(), 3u);
  EXPECT_EQ(card.sysfs().get("mic_id").value(), "3");
  EXPECT_EQ(card.memory().capacity(), 1u << 20);
}

}  // namespace
}  // namespace vphi::mic
