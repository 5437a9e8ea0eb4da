// Unit tests for the hypervisor substrate: guest memory / kmalloc limits,
// the frontend wait queue (the paper's waiting scheme), vma table, KVM MMU
// two-level mapping, QEMU event loop, and the Vm container.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "hv/event_loop.hpp"
#include "hv/guest_kernel.hpp"
#include "hv/guest_mem.hpp"
#include "hv/kvm_mmu.hpp"
#include "hv/vm.hpp"
#include "sim/cost_model.hpp"

namespace vphi::hv {
namespace {

using sim::CostModel;
using sim::Nanos;
using sim::Status;

TEST(GuestPhysMem, TranslateBounds) {
  GuestPhysMem ram{1 << 20};
  EXPECT_NE(ram.translate(0, 1), nullptr);
  EXPECT_NE(ram.translate((1 << 20) - 1, 1), nullptr);
  EXPECT_EQ(ram.translate(1 << 20, 1), nullptr);
  EXPECT_EQ(ram.translate((1 << 20) - 1, 2), nullptr);
}

TEST(GuestPhysMem, GpaOfInvertsTranslate) {
  GuestPhysMem ram{1 << 20};
  void* p = ram.translate(12'288, 16);
  ASSERT_NE(p, nullptr);
  auto gpa = ram.gpa_of(p);
  ASSERT_TRUE(gpa);
  EXPECT_EQ(*gpa, 12'288u);
  int stack_var;
  EXPECT_EQ(ram.gpa_of(&stack_var).status(), Status::kBadAddress);
}

TEST(GuestPhysMem, KmallocEnforcesLinuxCap) {
  GuestPhysMem ram{16ull << 20};
  EXPECT_TRUE(ram.kmalloc(kKmallocMaxSize));
  // One byte over KMALLOC_MAX_SIZE must fail — this is the limit that
  // forces the vPHI frontend to chunk large transfers.
  EXPECT_EQ(ram.kmalloc(kKmallocMaxSize + 1).status(), Status::kNoMemory);
  EXPECT_EQ(ram.kmalloc(0).status(), Status::kInvalidArgument);
}

TEST(GuestPhysMem, KmallocKfreeRecycles) {
  GuestPhysMem ram{8ull << 20};
  std::vector<std::uint64_t> blocks;
  for (int i = 0; i < 2; ++i) {
    auto b = ram.kmalloc(kKmallocMaxSize);
    ASSERT_TRUE(b);
    blocks.push_back(*b);
  }
  EXPECT_EQ(ram.kmalloc(4'096).status(), Status::kNoMemory) << "RAM exhausted";
  for (auto b : blocks) EXPECT_EQ(ram.kfree(b), Status::kOk);
  EXPECT_EQ(ram.allocated_bytes(), 0u);
  EXPECT_TRUE(ram.kmalloc(kKmallocMaxSize)) << "coalesced after free";
  EXPECT_EQ(ram.kfree(123), Status::kInvalidArgument);
}

// --- WaitQueue: the paper's waiting scheme ------------------------------------

TEST(WaitQueue, SingleWaiterPaysWakeupScheme) {
  const auto& m = CostModel::paper();
  WaitQueue wq{m};
  sim::Actor waiter{"w"};
  const auto ticket = wq.prepare();
  std::thread isr([&] { wq.complete(ticket, 100'000); });
  ASSERT_EQ(wq.wait(ticket, waiter), Status::kOk);
  isr.join();
  // resume = irq_ts + ISR entry + wakeup scheme (no extra sleepers).
  EXPECT_EQ(waiter.now(),
            100'000 + m.guest_irq_handler_ns + m.guest_wakeup_scheme_ns);
}

TEST(WaitQueue, CompletionBeforeWaitIsNotLost) {
  WaitQueue wq{CostModel::paper()};
  sim::Actor waiter{"w"};
  const auto ticket = wq.prepare();
  wq.complete(ticket, 5'000);  // ISR fires before the waiter sleeps
  EXPECT_EQ(wq.wait(ticket, waiter), Status::kOk);
  EXPECT_GE(waiter.now(), 5'000u);
}

TEST(WaitQueue, WakeAllTaxesConcurrentSleepers) {
  // With N sleepers, every interrupt wakes all of them; each waiter's
  // latency grows with the number of co-sleepers (spurious wakeups) —
  // the contention behaviour the paper's breakdown explains.
  const auto& m = CostModel::paper();
  WaitQueue wq{m};
  constexpr int kWaiters = 4;
  std::vector<std::uint64_t> tickets(kWaiters);
  for (auto& t : tickets) t = wq.prepare();

  std::vector<std::thread> waiters;
  std::vector<Nanos> resumes(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      sim::Actor a{std::string("w").append(std::to_string(i))};
      ASSERT_EQ(wq.wait(tickets[static_cast<std::size_t>(i)], a), Status::kOk);
      resumes[static_cast<std::size_t>(i)] = a.now();
    });
  }
  // Wait until every waiter is genuinely blocked, then complete one at a
  // time so the wake-all churn is observable deterministically: before the
  // next completion, every later waiter has woken for this one in vain.
  while (wq.blocked_waiters() != kWaiters) std::this_thread::yield();
  std::uint64_t expected_spurious = 0;
  for (int i = 0; i < kWaiters; ++i) {
    wq.complete(tickets[static_cast<std::size_t>(i)], 1'000);
    expected_spurious += static_cast<std::uint64_t>(kWaiters - 1 - i);
    while (wq.sleepers() > static_cast<std::size_t>(kWaiters - 1 - i) ||
           wq.spurious_wakeups() < expected_spurious) {
      std::this_thread::yield();
    }
  }
  for (auto& w : waiters) w.join();
  EXPECT_GT(wq.spurious_wakeups(), 0u)
      << "later completions spuriously woke earlier sleepers";
  // Everyone pays at least the base scheme; co-sleepers pay more.
  Nanos base = 1'000 + m.guest_irq_handler_ns + m.guest_wakeup_scheme_ns;
  int taxed = 0;
  for (auto r : resumes) {
    EXPECT_GE(r, base);
    if (r > base) ++taxed;
  }
  EXPECT_GT(taxed, 0) << "at least one waiter saw wake-all churn";
}

TEST(WaitQueue, WakeAllTaxCountsOtherOwnersNotOwnTickets) {
  // One vCPU's pipelined tickets are one sleeper: completing them one at a
  // time taxes nothing. Four vCPUs with one ticket each still pay one tax
  // per other vCPU asleep at the interrupt.
  const auto& m = CostModel::paper();
  const Nanos base = m.guest_irq_handler_ns + m.guest_wakeup_scheme_ns;
  constexpr int kTickets = 4;
  {
    WaitQueue wq{m};
    sim::Actor vcpu{"vcpu"};
    std::uint64_t tickets[kTickets];
    for (auto& t : tickets) t = wq.prepare(&vcpu);
    for (int i = 0; i < kTickets; ++i) {
      const Nanos irq = 1'000'000 * static_cast<Nanos>(i + 1);
      wq.complete(tickets[i], irq);
      ASSERT_EQ(wq.wait(tickets[i], vcpu), Status::kOk);
      EXPECT_EQ(vcpu.now(), irq + base) << "ticket " << i;
    }
  }
  {
    WaitQueue wq{m};
    std::vector<std::unique_ptr<sim::Actor>> vcpus;
    std::uint64_t tickets[kTickets];
    for (auto& t : tickets) {
      vcpus.push_back(std::make_unique<sim::Actor>("vcpu"));
      t = wq.prepare(vcpus.back().get());
    }
    for (int i = 0; i < kTickets; ++i) {
      const Nanos irq = 1'000'000 * static_cast<Nanos>(i + 1);
      wq.complete(tickets[i], irq);
      ASSERT_EQ(wq.wait(tickets[i], *vcpus[static_cast<std::size_t>(i)]),
                Status::kOk);
      const auto others = static_cast<Nanos>(kTickets - 1 - i);
      EXPECT_EQ(vcpus[static_cast<std::size_t>(i)]->now(),
                irq + base + others * m.wakeup_per_extra_sleeper_ns)
          << "ticket " << i;
    }
  }
}

TEST(WaitQueue, ShutdownReleasesWaiters) {
  WaitQueue wq{CostModel::paper()};
  const auto ticket = wq.prepare();
  Status got = Status::kOk;
  std::thread waiter([&] {
    sim::Actor a{"w"};
    got = wq.wait(ticket, a);
  });
  while (wq.sleepers() != 1) std::this_thread::yield();
  wq.shutdown();
  waiter.join();
  EXPECT_EQ(got, Status::kShutDown);
}

// --- VmaTable / MMU --------------------------------------------------------------

TEST(VmaTable, AddFindRemove) {
  VmaTable vmas;
  std::vector<std::byte> dev(8'192);
  ASSERT_EQ(vmas.add(Vma{0x7000'0000, 8'192, VM_PFNPHI, dev.data()}),
            Status::kOk);
  const Vma* v = vmas.find(0x7000'0000 + 4'096);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->device_base, dev.data());
  EXPECT_EQ(vmas.find(0x7000'0000 + 8'192), nullptr);
  EXPECT_EQ(vmas.find(0x6FFF'FFFF), nullptr);
  EXPECT_EQ(vmas.remove(0x7000'0000), Status::kOk);
  EXPECT_EQ(vmas.find(0x7000'0000), nullptr);
  EXPECT_EQ(vmas.remove(0x7000'0000), Status::kNoSuchEntry);
}

TEST(VmaTable, OverlapRejected) {
  VmaTable vmas;
  std::vector<std::byte> dev(16'384);
  ASSERT_EQ(vmas.add(Vma{0x1000, 8'192, VM_PFNPHI, dev.data()}), Status::kOk);
  EXPECT_EQ(vmas.add(Vma{0x2000, 8'192, VM_PFNPHI, dev.data()}),
            Status::kAlreadyExists);
  EXPECT_EQ(vmas.add(Vma{0x0, 8'192, VM_PFNPHI, dev.data()}),
            Status::kAlreadyExists);
  EXPECT_EQ(vmas.add(Vma{0x3000, 4'096, VM_PFNPHI, dev.data()}), Status::kOk);
}

TEST(KvmMmu, FaultOncePerPageThenCached) {
  const auto& m = CostModel::paper();
  VmaTable vmas;
  std::vector<std::byte> dev(16'384);
  dev[5'000] = std::byte{0xAB};
  ASSERT_EQ(vmas.add(Vma{0x10000, 16'384, VM_PFNPHI, dev.data()}), Status::kOk);
  kvm::Mmu mmu{vmas, m};

  sim::Actor a{"guest"};
  auto p = mmu.access(a, 0x10000 + 5'000, 1);
  ASSERT_TRUE(p);
  EXPECT_EQ(**p, std::byte{0xAB}) << "resolves to the device frame";
  EXPECT_EQ(mmu.faults(), 1u);
  EXPECT_EQ(a.now(), m.ept_fault_ns);

  // Second touch of the same page: no new fault, no fault cost.
  ASSERT_TRUE(mmu.access(a, 0x10000 + 5'001, 1));
  EXPECT_EQ(mmu.faults(), 1u);
  EXPECT_EQ(a.now(), m.ept_fault_ns);

  // A range spanning three pages faults the two untouched ones.
  ASSERT_TRUE(mmu.access(a, 0x10000, 3 * 4'096));
  EXPECT_EQ(mmu.faults(), 3u);
}

TEST(KvmMmu, UnmappedAccessFails) {
  VmaTable vmas;
  kvm::Mmu mmu{vmas, CostModel::paper()};
  sim::Actor a{"guest"};
  EXPECT_EQ(mmu.access(a, 0xDEAD'0000, 1).status(), Status::kBadAddress);
}

TEST(KvmMmu, NonPfnphiVmaRejected) {
  VmaTable vmas;
  std::vector<std::byte> dev(4'096);
  ASSERT_EQ(vmas.add(Vma{0x1000, 4'096, 0, dev.data()}), Status::kOk);
  kvm::Mmu mmu{vmas, CostModel::paper()};
  sim::Actor a{"guest"};
  EXPECT_EQ(mmu.access(a, 0x1000, 1).status(), Status::kAccessDenied);
}

TEST(KvmMmu, InvalidateForcesRefault) {
  VmaTable vmas;
  std::vector<std::byte> dev(4'096);
  ASSERT_EQ(vmas.add(Vma{0x1000, 4'096, VM_PFNPHI, dev.data()}), Status::kOk);
  kvm::Mmu mmu{vmas, CostModel::paper()};
  sim::Actor a{"guest"};
  ASSERT_TRUE(mmu.access(a, 0x1000, 1));
  EXPECT_EQ(mmu.mapped_pages(), 1u);
  mmu.invalidate(0x1000, 4'096);
  EXPECT_EQ(mmu.mapped_pages(), 0u);
  ASSERT_TRUE(mmu.access(a, 0x1000, 1));
  EXPECT_EQ(mmu.faults(), 2u);
}

// --- guest kernel services ----------------------------------------------------

TEST(GuestKernel, PinUnpinLifecycle) {
  GuestPhysMem ram{1 << 20};
  GuestKernel kernel{ram, CostModel::paper()};
  sim::Actor a{"guest"};
  ASSERT_EQ(kernel.pin_pages(a, 8'192, 16'384), Status::kOk);
  EXPECT_TRUE(kernel.is_pinned(8'192, 16'384));
  EXPECT_TRUE(kernel.is_pinned(12'288, 4'096)) << "subrange counts";
  EXPECT_FALSE(kernel.is_pinned(0, 4'096));
  EXPECT_GT(a.now(), 0u) << "pinning costs time";
  EXPECT_EQ(kernel.unpin_pages(8'192, 16'384), Status::kOk);
  EXPECT_FALSE(kernel.is_pinned(8'192, 16'384));
  EXPECT_EQ(kernel.unpin_pages(8'192, 16'384), Status::kInvalidArgument);
}

TEST(GuestKernel, PinOutsideRamFails) {
  GuestPhysMem ram{1 << 20};
  GuestKernel kernel{ram, CostModel::paper()};
  sim::Actor a{"guest"};
  EXPECT_EQ(kernel.pin_pages(a, 1 << 20, 4'096), Status::kBadAddress);
}

TEST(GuestKernel, UserCopiesMoveDataAndChargeTime) {
  GuestPhysMem ram{1 << 20};
  GuestKernel kernel{ram, CostModel::paper()};
  sim::Actor a{"guest"};
  const char src[] = "user data";
  char dst[sizeof(src)] = {};
  kernel.copy_from_user(a, dst, src, sizeof(src));
  EXPECT_STREQ(dst, src);
  EXPECT_GE(a.now(), CostModel::paper().copy_setup_ns);
}

// --- event loop ---------------------------------------------------------------

TEST(EventLoop, HandlersSerializeAndAccountBlockedTime) {
  EventLoop loop{"qemu-test"};
  std::atomic<int> order{0};
  int first = -1, second = -1;
  loop.post([&](sim::Actor& a) {
    a.advance(1'000);
    first = order.fetch_add(1);
  });
  loop.post([&](sim::Actor& a) {
    a.advance(500);
    second = order.fetch_add(1);
  });
  loop.drain();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(loop.handled(), 2u);
  EXPECT_EQ(loop.blocked_time(), 1'500u);
  loop.stop();
}

TEST(EventLoop, WorkersRunConcurrentlyWithLoop) {
  EventLoop loop{"qemu-test"};
  std::atomic<bool> worker_ran{false};
  sim::Nanos worker_start = 0;
  loop.run_in_worker(
      [&](sim::Actor& a) {
        worker_start = a.now();
        worker_ran = true;
      },
      42'000);
  loop.join_workers();
  EXPECT_TRUE(worker_ran);
  EXPECT_EQ(worker_start, 42'000u) << "worker actor starts at handoff time";
  EXPECT_EQ(loop.workers_spawned(), 1u);
  EXPECT_EQ(loop.blocked_time(), 0u) << "workers never hold the loop";
}

// Parked workers are reused: a long run of short worker handoffs starts a
// handful of threads, not one per handoff (enough of those exhaust the
// process's threads: std::system_error, EAGAIN).
TEST(EventLoop, SequentialWorkersAreReapedAsTheyFinish) {
  EventLoop loop{"qemu-test"};
  constexpr int kWorkers = 40'000;
  std::atomic<int> ran{0};
  EXPECT_NO_THROW({
    for (int i = 0; i < kWorkers; ++i) {
      loop.run_in_worker([&ran](sim::Actor&) { ran.fetch_add(1); }, 0);
    }
  });
  loop.join_workers();
  EXPECT_EQ(ran.load(), kWorkers);
  EXPECT_LT(loop.workers_spawned(), 1'000u);
}

// A handler parked in a blocking call (scif_accept, scif_poll) holds its
// thread; the next handoff must get another one, not queue behind it.
TEST(EventLoop, ParkedHandlerDoesNotDelayLaterHandoff) {
  EventLoop loop{"qemu-test"};
  std::promise<void> warm;
  loop.run_in_worker([&](sim::Actor&) { warm.set_value(); }, 0);
  warm.get_future().wait();  // the pool now has a thread to reuse

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> second_ran;
  std::future<void> second = second_ran.get_future();
  loop.run_in_worker([released](sim::Actor&) { released.wait(); }, 0);
  loop.run_in_worker([&](sim::Actor&) { second_ran.set_value(); }, 0);
  EXPECT_EQ(second.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "second handoff waited behind the parked handler";
  release.set_value();
  loop.join_workers();
}

TEST(EventLoop, JoinWorkersRunsQueuedHandlersAndPoolRestarts) {
  EventLoop loop{"qemu-test"};
  constexpr int kHandoffs = 64;
  std::atomic<int> ran{0};
  for (int i = 0; i < kHandoffs; ++i) {
    loop.run_in_worker([&ran](sim::Actor&) { ran.fetch_add(1); }, 0);
  }
  loop.join_workers();
  EXPECT_EQ(ran.load(), kHandoffs);

  const std::uint64_t spawned = loop.workers_spawned();
  loop.run_in_worker([&ran](sim::Actor&) { ran.fetch_add(1); }, 0);
  loop.join_workers();
  EXPECT_EQ(ran.load(), kHandoffs + 1);
  EXPECT_EQ(loop.workers_spawned(), spawned + 1) << "a fresh pool thread";
}

// Every handler gets a fresh actor at its own handoff time, so a reused
// thread carries no simulated time over from the handler it ran before.
// The pair repeats until the later, earlier-stamped handoff lands on a
// parked thread rather than a new one.
TEST(EventLoop, ReusedWorkerStartsAtEachHandoffTime) {
  EventLoop loop{"qemu-test"};
  bool reused = false;
  for (int attempt = 0; attempt < 1'000 && !reused; ++attempt) {
    for (const sim::Nanos start_ts : {sim::Nanos{42'000}, sim::Nanos{7'000}}) {
      const std::uint64_t spawned = loop.workers_spawned();
      std::promise<sim::Nanos> seen;
      loop.run_in_worker(
          [&seen](sim::Actor& a) {
            const sim::Nanos at_entry = a.now();
            a.advance(1'000);
            seen.set_value(at_entry);
          },
          start_ts);
      EXPECT_EQ(seen.get_future().get(), start_ts);
      reused = start_ts == 7'000 && loop.workers_spawned() == spawned;
    }
  }
  EXPECT_TRUE(reused) << "no handoff ever reused a parked worker";
  loop.join_workers();
}

TEST(EventLoop, StopAfterPendingHandlersStillRunsThem) {
  EventLoop loop{"qemu-test"};
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    loop.post([&](sim::Actor&) { ++ran; });
  }
  loop.stop();
  EXPECT_EQ(ran.load(), 10);
}

// --- Vm container ---------------------------------------------------------------

TEST(Vm, WiringAndIrqDelivery) {
  Vm vm{{.name = "test-vm", .ram_bytes = 8ull << 20, .ring_size = 16},
        CostModel::paper()};
  EXPECT_EQ(vm.ram().ram_bytes(), 8ull << 20);
  EXPECT_EQ(vm.vq().size(), 16);

  Nanos seen = 0;
  vm.set_irq_handler([&](Nanos ts) { seen = ts; });
  vm.inject_irq(10'000);
  EXPECT_EQ(seen, 10'000 + CostModel::paper().irq_inject_ns);
  EXPECT_EQ(vm.irqs_injected(), 1u);
}

TEST(Vm, KickCostsVmexit) {
  Vm vm{{.name = "test-vm", .ram_bytes = 1ull << 20}, CostModel::paper()};
  sim::Actor guest{"guest"};
  vm.kick_cost(guest);
  EXPECT_EQ(guest.now(), CostModel::paper().kick_vmexit_ns);
}

TEST(Vm, RingTranslatesThroughGuestRam) {
  Vm vm{{.name = "test-vm", .ram_bytes = 1ull << 20, .ring_size = 8},
        CostModel::paper()};
  auto gpa = vm.ram().kmalloc(4'096);
  ASSERT_TRUE(gpa);
  auto* p = static_cast<std::uint8_t*>(vm.ram().translate(*gpa, 4));
  ASSERT_NE(p, nullptr);
  p[0] = 0x5A;
  virtio::BufferRef out{*gpa, 4};
  ASSERT_TRUE(vm.vq().add_buf({&out, 1}, {}));
  vm.vq().kick(0);
  auto chain = vm.vq().try_pop_avail();
  ASSERT_TRUE(chain);
  EXPECT_EQ(static_cast<std::uint8_t*>(chain->segments[0].ptr)[0], 0x5A);
}

TEST(Vm, DeviceStatusHandshake) {
  Vm vm{{.name = "t"}, CostModel::paper()};
  auto& status = vm.device_status();
  status.set(virtio::VIRTIO_STATUS_ACKNOWLEDGE);
  status.set(virtio::VIRTIO_STATUS_DRIVER);
  EXPECT_TRUE(status.negotiate(status.offered_features()));
  status.set(virtio::VIRTIO_STATUS_DRIVER_OK);
  EXPECT_TRUE(status.driver_ok());
}

}  // namespace
}  // namespace vphi::hv
