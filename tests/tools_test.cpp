// Tests for the remaining tools-layer pieces: the testbed builder itself,
// guest user-buffer management, and frontend/backend statistics surfaces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>

#include "sim/actor.hpp"
#include "tools/testbed.hpp"

namespace vphi::tools {
namespace {

using sim::Status;

TEST(Testbed, DefaultConfigurationWiresEverything) {
  Testbed bed{TestbedConfig{}};
  EXPECT_TRUE(bed.card().online());
  EXPECT_EQ(bed.fabric().node_count(), 2);
  EXPECT_EQ(bed.vm_count(), 1u);
  EXPECT_NE(bed.coi_daemon(), nullptr);
  EXPECT_TRUE(bed.vm(0).frontend().probed());
}

// Resident set of this process in bytes (second field of /proc/self/statm).
std::uint64_t resident_bytes() {
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Testbed, DefaultTestbedOnlyPaysForTouchedPages) {
  // 512 MiB of card memory plus 256 MiB of guest RAM are mapped, but pages
  // materialise only when touched, so building the testbed stays small.
  const std::uint64_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  Testbed bed{TestbedConfig{}};
  const std::uint64_t after = resident_bytes();
  EXPECT_LT(after, before + (64ull << 20));
}

TEST(Testbed, NoDaemonWhenDisabled) {
  TestbedConfig config;
  config.start_coi_daemon = false;
  Testbed bed{config};
  EXPECT_EQ(bed.coi_daemon(), nullptr);
}

TEST(Testbed, AddVmGrowsTheFleet) {
  Testbed bed{TestbedConfig{}};
  auto& vm1 = bed.add_vm();
  EXPECT_EQ(bed.vm_count(), 2u);
  EXPECT_TRUE(vm1.frontend().probed());
  EXPECT_EQ(vm1.vm().name(), "vm1");
  // Distinct backends = distinct host-process identities.
  EXPECT_NE(&bed.vm(0).backend().provider(), &vm1.backend().provider());
}

TEST(Testbed, UserBuffersComeFromGuestRam) {
  Testbed bed{TestbedConfig{}};
  auto buf = bed.vm(0).alloc_user_buffer(10ull << 20);  // > kmalloc cap: fine
  ASSERT_TRUE(buf);
  auto gpa = bed.vm(0).vm().ram().gpa_of(*buf);
  EXPECT_TRUE(gpa);
  EXPECT_EQ(bed.vm(0).free_user_buffer(*buf), Status::kOk);
  int on_stack;
  EXPECT_EQ(bed.vm(0).free_user_buffer(&on_stack), Status::kBadAddress);
}

TEST(Testbed, VmRamExhaustionFailsCleanly) {
  TestbedConfig config;
  config.vm_ram_bytes = 4ull << 20;
  Testbed bed{config};
  EXPECT_EQ(bed.vm(0).alloc_user_buffer(64ull << 20).status(),
            Status::kNoMemory);
}

TEST(Testbed, StatsStartAtZeroAndCount) {
  Testbed bed{TestbedConfig{}};
  auto& fe = bed.vm(0).frontend();
  auto& be = bed.vm(0).backend();
  EXPECT_EQ(fe.requests(), 0u);
  EXPECT_EQ(be.requests_handled(), 0u);

  sim::Actor a{"app", sim::Actor::AtNow{}};
  sim::ActorScope scope(a);
  auto epd = bed.vm(0).guest_scif().open();
  ASSERT_TRUE(epd);
  EXPECT_EQ(fe.requests(), 1u);
  EXPECT_EQ(fe.interrupt_waits(), 1u);
  EXPECT_EQ(fe.polled_waits(), 0u);
  EXPECT_EQ(be.requests_handled(), 1u);
  EXPECT_EQ(be.blocking_requests(), 1u);
  EXPECT_EQ(be.worker_requests(), 0u);
}

}  // namespace
}  // namespace vphi::tools
