// Unit tests for the simulation substrate: actors/virtual time, the bus
// arbiter, timestamped event lines, statistics containers, and — crucially —
// the paper anchors baked into the default CostModel.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/actor.hpp"
#include "sim/bus.hpp"
#include "sim/cost_model.hpp"
#include "sim/fan_out.hpp"
#include "sim/page_arena.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"
#include "sim/timeseries.hpp"

namespace vphi::sim {
namespace {

TEST(Time, TransferTimeBasics) {
  EXPECT_EQ(transfer_time(0, 1e9), 0u);
  EXPECT_EQ(transfer_time(1'000'000'000, 1e9), 1'000'000'000u);  // 1 GB @ 1GB/s
  EXPECT_EQ(transfer_time(1, 1e12), 1u) << "nonzero transfers take >= 1 ns";
  EXPECT_EQ(transfer_time(4096, 4.096e9), 1'000u);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_micros(kMicrosecond), 1.0);
  EXPECT_DOUBLE_EQ(to_micros(7 * kMicrosecond), 7.0);
}

TEST(Actor, AdvanceAccumulates) {
  Actor a{"t"};
  EXPECT_EQ(a.now(), 0u);
  EXPECT_EQ(a.advance(100), 100u);
  EXPECT_EQ(a.advance(50), 150u);
  EXPECT_EQ(a.now(), 150u);
}

TEST(Actor, SyncOnlyMovesForward) {
  Actor a{"t", 1'000};
  EXPECT_EQ(a.sync_to(500), 1'000u) << "sync to the past is a no-op";
  EXPECT_EQ(a.sync_to(2'000), 2'000u);
  EXPECT_EQ(a.sync_and_advance(1'500, 10), 2'010u)
      << "sync below current now still pays the advance";
}

TEST(Actor, ThisActorFallbackExists) {
  Actor& d = this_actor();
  EXPECT_FALSE(has_bound_actor());
  const Nanos before = d.now();
  d.advance(5);
  EXPECT_EQ(this_actor().now(), before + 5);
}

TEST(Actor, ScopeBindsAndNests) {
  Actor outer{"outer", 10};
  Actor inner{"inner", 20};
  {
    ActorScope s1(outer);
    EXPECT_TRUE(has_bound_actor());
    EXPECT_EQ(&this_actor(), &outer);
    {
      ActorScope s2(inner);
      EXPECT_EQ(&this_actor(), &inner);
    }
    EXPECT_EQ(&this_actor(), &outer);
  }
  EXPECT_FALSE(has_bound_actor());
}

TEST(Actor, ScopeIsPerThread) {
  Actor main_actor{"main"};
  ActorScope scope(main_actor);
  bool other_thread_bound = true;
  std::thread t([&] { other_thread_bound = has_bound_actor(); });
  t.join();
  EXPECT_FALSE(other_thread_bound);
}

TEST(Bus, UncontendedStartsAtReady) {
  BusArbiter bus;
  const auto g = bus.acquire(100, 50);
  EXPECT_EQ(g.start, 100u);
  EXPECT_EQ(g.end, 150u);
  EXPECT_EQ(bus.free_at(), 150u);
}

TEST(Bus, ContentionQueues) {
  BusArbiter bus;
  const auto g1 = bus.acquire(0, 100);
  const auto g2 = bus.acquire(10, 100);  // requester ready at 10, bus busy
  EXPECT_EQ(g1.end, 100u);
  EXPECT_EQ(g2.start, 100u);
  EXPECT_EQ(g2.end, 200u);
  EXPECT_EQ(bus.busy_total(), 200u);
  EXPECT_EQ(bus.grants(), 2u);
}

TEST(Bus, IdleGapNotCharged) {
  BusArbiter bus;
  bus.acquire(0, 10);
  const auto g = bus.acquire(1'000, 10);  // long idle gap before
  EXPECT_EQ(g.start, 1'000u);
  EXPECT_EQ(bus.busy_total(), 20u);
}

TEST(Bus, ConcurrentAcquiresLinearize) {
  BusArbiter bus;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus] {
      for (int i = 0; i < kPerThread; ++i) bus.acquire(0, 7);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bus.busy_total(), static_cast<Nanos>(kThreads * kPerThread * 7));
  EXPECT_EQ(bus.free_at(), bus.busy_total()) << "back-to-back grants from t=0";
}

TEST(Status, Names) {
  EXPECT_EQ(to_string(Status::kOk), "OK");
  EXPECT_EQ(to_string(Status::kConnectionReset), "CONNECTION_RESET");
  EXPECT_TRUE(ok(Status::kOk));
  EXPECT_FALSE(ok(Status::kNoMemory));
}

TEST(Expected, ValueAndError) {
  Expected<int> good{7};
  ASSERT_TRUE(good);
  EXPECT_EQ(*good, 7);
  EXPECT_EQ(good.status(), Status::kOk);

  Expected<int> bad{Status::kNoDevice};
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.status(), Status::kNoDevice);
  EXPECT_EQ(bad.value_or(-1), -1);
}

/// True if every byte of [p, p + len) reads zero.
bool reads_zero(const void* p, std::size_t len) {
  static const std::uint8_t zero[PageArena::kPageSize] = {};
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  for (std::size_t off = 0; off < len; off += sizeof zero) {
    const std::size_t n = std::min(sizeof zero, len - off);
    if (std::memcmp(bytes + off, zero, n) != 0) return false;
  }
  return true;
}

/// How many pages of [p, p + len) mincore finds in core; `p` page-aligned.
std::size_t pages_in_core(const void* p, std::size_t len) {
  std::vector<unsigned char> in_core((len + PageArena::kPageSize - 1) /
                                     PageArena::kPageSize);
  if (::mincore(const_cast<void*>(p), len, in_core.data()) != 0) return 0;
  return static_cast<std::size_t>(std::count_if(
      in_core.begin(), in_core.end(), [](unsigned char c) { return c & 1; }));
}

TEST(PageArena, FreshArenaReadsZero) {
  PageArena arena{64ull << 20};
  ASSERT_NE(arena.at(0), nullptr);
  EXPECT_TRUE(reads_zero(arena.at(0), arena.capacity()));
  EXPECT_EQ(arena.at(arena.capacity()), nullptr);
}

// The next arena of a destroyed arena's capacity takes its mapping, and
// every byte the old one wrote reads zero: in a live block, in a freed
// block, and outside every block through at(), above the high-water mark.
TEST(PageArena, RecycledArenaReadsZero) {
  constexpr std::uint64_t kMiB = 1ull << 20;
  constexpr std::uint64_t kPage = PageArena::kPageSize;
  constexpr std::uint64_t kCapacity = 24 * kMiB + 3 * kPage;  // this test's
  struct Scribble {
    std::uint64_t offset, len;
  };
  std::vector<Scribble> scribbles;
  const void* old_base = nullptr;
  {
    PageArena arena{kCapacity};
    old_base = arena.at(0);
    const auto live = arena.allocate(2 * kMiB + 5 * kPage);
    const auto freed = arena.allocate(kMiB);
    const auto last = arena.allocate(kMiB);
    ASSERT_TRUE(live && freed && last);
    ASSERT_EQ(arena.free(*freed), Status::kOk);
    scribbles = {{*live, 2 * kMiB + 5 * kPage},
                 {*freed, kMiB},
                 {*last + kMiB + 3 * kPage, 100},
                 {16 * kMiB, kMiB},
                 {kCapacity - 100, 100}};
    for (const Scribble& s : scribbles) {
      std::memset(arena.at(s.offset), 0xa5, s.len);
    }
  }
  PageArena next{kCapacity};
  ASSERT_EQ(next.at(0), old_base) << "the new arena must take the spare";
  for (const Scribble& s : scribbles) {
    EXPECT_TRUE(reads_zero(next.at(s.offset), s.len))
        << s.len << " bytes at +" << s.offset;
  }
}

// Teardown drops a resident run of 16 MiB or more, as munmap would, and
// keeps a shorter one in core for the next arena, which zeroes it.
TEST(PageArena, RecycleDropsLongResidentRunsAndZeroesShortOnes) {
  constexpr std::uint64_t kMiB = 1ull << 20;
  constexpr std::uint64_t kPage = PageArena::kPageSize;
  constexpr std::uint64_t kCapacity = 40 * kMiB + 7 * kPage;  // this test's
  constexpr std::uint64_t kLong = 20 * kMiB;
  constexpr std::uint64_t kShort = kMiB;
  std::uint64_t long_run = 0;
  std::uint64_t short_run = 0;
  const void* old_base = nullptr;
  {
    PageArena arena{kCapacity};
    old_base = arena.at(0);
    const auto first = arena.allocate(kLong);
    // Never touched: a gap wider than two huge pages keeps the runs apart.
    const auto gap = arena.allocate(6 * kMiB);
    const auto second = arena.allocate(kShort);
    ASSERT_TRUE(first && gap && second);
    long_run = *first;
    short_run = *second;
    populate_pages(arena.at(long_run), kLong);
    populate_pages(arena.at(short_run), kShort);
    if (pages_in_core(arena.at(long_run), kLong) != kLong / kPage) {
      GTEST_SKIP() << "kernel has no MADV_POPULATE_WRITE";
    }
    ASSERT_EQ(pages_in_core(arena.at(short_run), kShort), kShort / kPage);
    std::memset(arena.at(long_run), 0x5a, kLong);
    std::memset(arena.at(short_run), 0x5a, kShort);
  }
  PageArena next{kCapacity};
  ASSERT_EQ(next.at(0), old_base) << "the new arena must take the spare";
  EXPECT_EQ(pages_in_core(next.at(long_run), kLong), 0u);
  EXPECT_EQ(pages_in_core(next.at(short_run), kShort), kShort / kPage);
  EXPECT_TRUE(reads_zero(next.at(short_run), kShort));
}

// A dirty page swapped out while its arena lived is not in core at
// teardown, yet still holds its bytes: it must read zero in the next arena
// too. MADV_PAGEOUT swaps every other page of a block out on a host with
// swap; without swap the pages stay in core and take the resident path.
TEST(PageArena, RecycledArenaReadsZeroAfterPagesSwapOut) {
  constexpr std::uint64_t kPage = PageArena::kPageSize;
  constexpr std::uint64_t kCapacity = (12ull << 20) + 5 * kPage;  // this test's
  constexpr std::uint64_t kLen = 64 * kPage;
  std::uint64_t offset = 0;
  const void* old_base = nullptr;
  {
    PageArena arena{kCapacity};
    old_base = arena.at(0);
    const auto block = arena.allocate(kLen);
    ASSERT_TRUE(block);
    offset = *block;
    auto* bytes = static_cast<std::uint8_t*>(arena.at(offset));
    std::memset(bytes, 0x3c, kLen);
    for (std::uint64_t page = 1; page < kLen / kPage; page += 2) {
      ::madvise(bytes + page * kPage, kPage, MADV_PAGEOUT);
    }
    RecordProperty("pages_in_core_after_pageout",
                   static_cast<int>(pages_in_core(bytes, kLen)));
  }
  PageArena next{kCapacity};
  ASSERT_EQ(next.at(0), old_base) << "the new arena must take the spare";
  EXPECT_TRUE(reads_zero(next.at(offset), kLen));
}

// Arenas built and destroyed on 4 threads at once share the spare list;
// each reads zero where an earlier one, on any thread, wrote.
TEST(PageArena, ConcurrentArenasRecycleCleanly) {
  constexpr std::uint64_t kCapacity = 3ull << 20;  // this test's
  constexpr std::uint64_t kBlock = 64 * 1024;
  std::atomic<int> dirty{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&dirty, t] {
      for (int i = 0; i < 200; ++i) {
        PageArena arena{kCapacity};
        const auto block = arena.allocate(kBlock);
        if (!block || !reads_zero(arena.at(*block), kBlock)) {
          dirty.fetch_add(1);
          continue;
        }
        std::memset(arena.at(*block), t + 1, kBlock);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(dirty.load(), 0);
}

TEST(PageArena, PopulateKeepsContents) {
  PageArena arena{1 << 20};
  auto* bytes = static_cast<std::uint8_t*>(arena.at(0));
  bytes[5'000] = 0x5a;
  populate_pages(bytes + 100, 64 * 1024);  // unaligned start
  EXPECT_EQ(bytes[5'000], 0x5a);
  EXPECT_EQ(bytes[100], 0u);
  EXPECT_EQ(bytes[64 * 1024 + 99], 0u);
}

// fan_out's slices tile the range in order: min(cap, len / min_slice) of
// them, inner bounds rounded down to `align` multiples, slice 0 on the
// caller's thread.
TEST(FanOut, SlicesTileTheRangeOnAlignedBounds) {
  struct Case {
    std::size_t begin, end, cap;
    std::vector<std::size_t> bounds;
  };
  const Case cases[] = {
      {3, 18, 4, {3, 18}},                 // under two minimum slices
      {3, 19, 4, {3, 10, 19}},             // two
      {5, 45, 4, {5, 14, 24, 34, 45}},     // five would fit; capped at 4
      {5, 45, 1, {5, 45}},                 // a cap of 1 never spawns
  };
  for (const Case& c : cases) {
    struct Slice {
      std::size_t lo, hi;
      std::thread::id who;
    };
    Mutex mu;
    std::vector<Slice> slices;
    fan_out(c.begin, c.end, 8, c.cap, 2, [&](std::size_t lo, std::size_t hi) {
      MutexLock lock(mu);
      slices.push_back({lo, hi, std::this_thread::get_id()});
    });
    std::sort(slices.begin(), slices.end(),
              [](const Slice& x, const Slice& y) { return x.lo < y.lo; });
    std::vector<std::size_t> bounds{c.begin};
    for (const Slice& slice : slices) {
      EXPECT_EQ(slice.lo, bounds.back()) << "slices must be contiguous";
      bounds.push_back(slice.hi);
    }
    EXPECT_EQ(bounds, c.bounds) << "[" << c.begin << ", " << c.end << ")";
    ASSERT_FALSE(slices.empty());
    EXPECT_EQ(slices.front().who, std::this_thread::get_id());
  }
}

// The process's thread ids, from /proc/self/task, sorted.
std::vector<long> task_ids() {
  std::vector<long> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(std::stol(entry.path().filename().string()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// No slice starts until every slice thread exists: a slice inside
// populate_pages holds mmap_lock for read, and would hold back each later
// pthread_create, which takes it for write to map the new thread's stack.
// Each body lists the process's threads as it starts; every list must
// hold the thread of every slice. A spawned slice stays alive until every
// slice has listed, so that no list misses a thread that has finished.
TEST(FanOut, NoSliceStartsBeforeEverySliceThreadExists) {
  constexpr std::size_t kSlices = 8;
  struct Start {
    long self;
    std::vector<long> seen;
  };
  const long caller = ::gettid();
  Mutex mu;
  std::vector<Start> starts;
  std::atomic<std::size_t> listed{0};
  fan_out(0, kSlices, 1, kSlices, 1, [&](std::size_t, std::size_t) {
    const long self = ::gettid();
    std::vector<long> seen = task_ids();
    {
      MutexLock lock(mu);
      starts.push_back({self, std::move(seen)});
    }
    listed.fetch_add(1);
    while (self != caller && listed.load() < kSlices) {
      std::this_thread::yield();
    }
  });
  ASSERT_EQ(starts.size(), kSlices);
  for (const Start& early : starts) {
    for (const Start& other : starts) {
      EXPECT_TRUE(std::binary_search(early.seen.begin(), early.seen.end(),
                                     other.self))
          << "the slice on thread " << early.self << " started before thread "
          << other.self << " existed";
    }
  }
}

// populate_pages over three bulk slices, from a start that is neither page-
// nor 2 MiB-aligned to an end that is not either. The byte stamped into
// each slice beforehand survives, and mincore sees every page of the range
// resident: no gap opens between two slices or at either end.
TEST(PageArena, PopulateAcrossSlicesLeavesNoGap) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr std::size_t kPage = PageArena::kPageSize;
  constexpr std::size_t kLen = 24 * kMiB + 3 * kPage;
  PageArena arena{40 * kMiB};
  auto* base = static_cast<std::uint8_t*>(arena.at(0));
  // Small pages, so that a stamp faults in its own page alone and a page
  // populate skipped stays out of core. Page 0 lies outside the range.
  ASSERT_EQ(::madvise(base, arena.capacity(), MADV_NOHUGEPAGE), 0);
  if (::madvise(base, kPage, MADV_POPULATE_WRITE) != 0) {
    GTEST_SKIP() << "kernel has no MADV_POPULATE_WRITE";
  }
  const std::size_t lead =
      (2 * kMiB - reinterpret_cast<std::uintptr_t>(base) % (2 * kMiB)) %
      (2 * kMiB);
  std::uint8_t* const start = base + lead + 5 * kPage + 100;
  for (std::size_t off = 0; off < kLen; off += kMiB) start[off] = 0x5a;

  populate_pages(start, kLen);

  for (std::size_t off = 0; off < kLen; off += kMiB) {
    EXPECT_EQ(start[off], 0x5a) << "stamp at +" << off;
  }
  EXPECT_EQ(start[1], 0u);
  EXPECT_EQ(start[kLen - 1], 0u);
  const auto first = reinterpret_cast<std::uintptr_t>(start) & ~(kPage - 1);
  const std::size_t span =
      reinterpret_cast<std::uintptr_t>(start) + kLen - first;
  std::vector<unsigned char> resident((span + kPage - 1) / kPage);
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(first), span, resident.data()),
            0);
  const auto gap = std::find_if(resident.begin(), resident.end(),
                                [](unsigned char r) { return (r & 1) == 0; });
  EXPECT_EQ(gap, resident.end())
      << "page " << (gap - resident.begin()) << " of " << resident.size()
      << " is not resident";
}

TEST(PageArena, OversizedArenaThrowsBadAlloc) {
  EXPECT_THROW(PageArena{1ull << 62}, std::bad_alloc);
}

TEST(PageArena, OversizedAllocationFailsWithoutWrapping) {
  PageArena arena{1 << 20};
  EXPECT_EQ(arena.allocate(~0ull).status(), Status::kNoMemory);
  EXPECT_EQ(arena.allocation_count(), 0u);
}

/// The bracketed word of the kernel's THP mode ("always", "madvise" or
/// "never"); "never" where the kernel has no THP.
std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  const auto open = line.find('[');
  const auto close = line.find(']');
  if (open == std::string::npos || close < open) return "never";
  return line.substr(open + 1, close - open - 1);
}

/// THPeligible of the /proc/self/smaps mapping that holds `p`, or -1 when
/// the kernel does not report it.
int thp_eligible(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("THPeligible:", 0) == 0) {
      return std::stoi(line.substr(12));
    }
  }
  return -1;
}

TEST(PageArena, BlocksOfTwoMiBGetHugePagesWhileAllocated) {
  constexpr std::uint64_t kHuge = 2ull << 20;
  constexpr std::uint64_t kBig = 6ull << 20;
  PageArena arena{16ull << 20};
  auto big = arena.allocate(kBig);
  auto small = arena.allocate(1ull << 20);
  ASSERT_TRUE(big);
  ASSERT_TRUE(small);
  auto* bytes = static_cast<std::uint8_t*>(arena.at(*big));
  // The block's 2 MiB-aligned interior starts `lead` bytes in and is at
  // least 4 MiB long.
  const auto addr = reinterpret_cast<std::uintptr_t>(bytes);
  const std::uint64_t lead = (kHuge - addr % kHuge) % kHuge;
  const std::uint8_t* interior = bytes + lead;

  // The advice changes how pages fault, not what they hold.
  bytes[lead + 10] = 0x5a;
  populate_pages(bytes, kBig);
  EXPECT_EQ(bytes[lead + 10], 0x5a);
  EXPECT_EQ(bytes[0], 0u);
  EXPECT_EQ(bytes[kBig - 1], 0u);

  const std::string mode = thp_mode();
  const bool thp = mode != "never" && thp_eligible(interior) >= 0;
  if (thp) {
    EXPECT_EQ(thp_eligible(interior), 1);
    EXPECT_EQ(thp_eligible(interior + 2 * kHuge - 1), 1);
    // Under "always" every anonymous mapping is eligible anyway.
    if (mode == "madvise") {
      EXPECT_EQ(thp_eligible(arena.at(*small)), 0) << "1 MiB block";
    }
  }

  // Free the large block and carve a small one from its old interior.
  ASSERT_EQ(arena.free(*big), Status::kOk);
  if (lead > 0) {
    ASSERT_EQ(*arena.allocate(lead), 0u);
  }
  auto carved = arena.allocate(64 * 1024);
  ASSERT_TRUE(carved);
  ASSERT_EQ(arena.at(*carved), interior);
  EXPECT_EQ(interior[10], 0x5a);  // freeing drops nothing either
  if (thp) {
    EXPECT_EQ(thp_eligible(interior), 0);
  }
}

/// The VmFlags of the mapping that holds `p`, e.g. "rd wr mr mw me ac nh".
std::string vm_flags(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line.substr(8);
    }
  }
  return {};
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string word;
  while (in >> word) {
    if (word == flag) return true;
  }
  return false;
}

// A recycled mapping carries the advice freeing every block would leave:
// the interior of a block of 2 MiB or more that was live at teardown is
// MADV_NOHUGEPAGE ("nh"), and a range that never held one has neither flag,
// as in a fresh mapping.
TEST(PageArena, RecycledArenaKeepsTheAdviceFreeLeaves) {
  constexpr std::uint64_t kHuge = 2ull << 20;
  constexpr std::uint64_t kPage = PageArena::kPageSize;
  constexpr std::uint64_t kCapacity = (14ull << 20) + 9 * kPage;  // this test's
  const void* old_base = nullptr;
  std::uint64_t big = 0;
  {
    PageArena arena{kCapacity};
    old_base = arena.at(0);
    const auto block = arena.allocate(6ull << 20);
    ASSERT_TRUE(block);
    big = *block;
    if (!has_flag(vm_flags(arena.at(big + kHuge)), "hg")) {
      GTEST_SKIP() << "kernel without MADV_HUGEPAGE";
    }
  }
  PageArena next{kCapacity};
  ASSERT_EQ(next.at(0), old_base) << "the new arena must take the spare";
  const std::string interior = vm_flags(next.at(big + kHuge));
  EXPECT_TRUE(has_flag(interior, "nh")) << interior;
  EXPECT_FALSE(has_flag(interior, "hg")) << interior;
  const std::string untouched = vm_flags(next.at(kCapacity - kPage));
  EXPECT_FALSE(has_flag(untouched, "nh")) << untouched;
  EXPECT_FALSE(has_flag(untouched, "hg")) << untouched;
}

TEST(Summary, Moments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Histogram, PercentilesMonotone) {
  Histogram h;
  for (Nanos v = 1; v <= 1'000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1'000u);
  const double p50 = h.percentile(0.50);
  const double p90 = h.percentile(0.90);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p50, 256.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_EQ(Histogram{}.percentile(0.5), 0.0);
}

TEST(Timeline, PointsPastTheCapAreCountedNotStored) {
  // Custom series fill the store without a fleet run: two series, one
  // point each per ts, until kOver pairs past Timeline::kMaxPoints.
  Timeline tl{TimelineConfig{1'000}};
  tl.begin_run(1, 0);
  const std::uint32_t a = tl.add_series("test.a");
  const std::uint32_t b = tl.add_series("test.b");
  ASSERT_LT(a, b);
  constexpr std::size_t kOver = 5;
  const std::size_t pairs = Timeline::kMaxPoints / 2 + kOver;
  for (std::size_t i = 0; i < pairs; ++i) {
    tl.record(a, static_cast<Nanos>(i), 1.0);
    tl.record(b, static_cast<Nanos>(i), 2.5);
  }
  tl.finish_run(static_cast<Nanos>(pairs));

  EXPECT_EQ(tl.dropped(), 2 * kOver);
  const auto& pts = tl.points();
  ASSERT_EQ(pts.size(), Timeline::kMaxPoints);
  // The earliest points are the ones kept, still ordered by (ts, series).
  EXPECT_EQ(pts.front().ts, 0u);
  EXPECT_EQ(pts.back().ts, static_cast<Nanos>(Timeline::kMaxPoints / 2 - 1));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const bool ordered =
        pts[i - 1].ts < pts[i].ts ||
        (pts[i - 1].ts == pts[i].ts && pts[i - 1].series < pts[i].series);
    ASSERT_TRUE(ordered) << "point " << i << " out of order";
  }
  const std::string json = tl.json();
  EXPECT_NE(json.find("\"dropped\":10,"), std::string::npos);
  EXPECT_NE(json.find("\"points\":[[0," + std::to_string(a) + ",1],[0," +
                      std::to_string(b) + ",2.5],"),
            std::string::npos);
}

TEST(FigureTable, PrintsAllSeriesAndRatios) {
  FigureTable t{"demo", "size"};
  Series host{"host", {}, {}};
  host.add(1, 7.0);
  host.add(2, 8.0);
  Series vphi{"vphi", {}, {}};
  vphi.add(1, 382.0);
  vphi.add(2, 383.0);
  t.add_series(host);
  t.add_series(vphi);
  t.add_ratio_column(1, 0, "vphi/host");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("host"), std::string::npos);
  EXPECT_NE(out.find("382.0000"), std::string::npos);
  EXPECT_NE(out.find("54.5714"), std::string::npos);  // 382/7
}

TEST(Stats, FormatBytes) {
  EXPECT_EQ(format_bytes(1), "1 B");
  EXPECT_EQ(format_bytes(4096), "4 KiB");
  EXPECT_EQ(format_bytes(64ull << 20), "64 MiB");
  EXPECT_EQ(format_bytes(3ull << 30), "3 GiB");
  EXPECT_EQ(format_bytes(1500), "1500 B");
}

TEST(Rng, Deterministic) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangesRespectBounds) {
  Rng r{7};
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_LT(r.below(10), 10u);
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, FillIsReproducible) {
  Rng a{42}, b{42};
  unsigned char buf_a[37], buf_b[37];
  a.fill(buf_a, sizeof(buf_a));
  b.fill(buf_b, sizeof(buf_b));
  EXPECT_EQ(memcmp(buf_a, buf_b, sizeof(buf_a)), 0);
}

std::uint64_t fnv1a64(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

// fill_wide() against the scalar reference with the start at every offset
// within a cache line, so the wide path's head, lines and tail each see
// every split (an offset that is not 8-aligned stays scalar). The bytes
// either side of the fill must be untouched, and the state must agree.
TEST(Rng, FillWideMatchesScalarAtEveryOffsetAndShortLength) {
  constexpr std::size_t kMaxLen = 130;
  alignas(64) unsigned char wide[64 + kMaxLen + 64];
  alignas(64) unsigned char ref[sizeof(wide)];
  for (std::size_t off = 0; off < 64; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      std::memset(wide, 0xA5, sizeof(wide));
      std::memset(ref, 0xA5, sizeof(ref));
      Rng a{off * 1'000 + len}, b{off * 1'000 + len};
      a.fill_wide(wide + off, len);
      b.fill_scalar(ref + off, len);
      ASSERT_EQ(std::memcmp(wide, ref, sizeof(wide)), 0)
          << "offset " << off << " length " << len;
      ASSERT_EQ(a.next(), b.next()) << "offset " << off << " length " << len;
    }
  }
}

// fill() takes the wide path from kWideFillBytes on; both sides of that
// threshold and a 64 MiB window give the scalar reference's bytes.
TEST(Rng, FillMatchesScalarAroundTheWideThreshold) {
  for (const std::size_t n :
       {Rng::kWideFillBytes - 1, Rng::kWideFillBytes, Rng::kWideFillBytes + 1,
        std::size_t{64} << 20}) {
    std::vector<unsigned char> got(n), want(n);
    Rng a{7}, b{7};
    a.fill(got.data(), n);
    b.fill_scalar(want.data(), n);
    EXPECT_TRUE(got == want) << n << " bytes";
    EXPECT_EQ(a.next(), b.next()) << n << " bytes";
  }
}

// fill() at 1, 2, 3 and 4 bulk slices (sim/fan_out.hpp), a line either
// side of each slice-count step, from a 2 MiB-aligned start, a start that is
// 8- but not line-aligned and one that is not 8-aligned. Every fill gives
// the scalar stream's bytes, writes nothing past its end and leaves the
// state ceil(n / 8) draws on. The reference is one scalar fill of the
// longest length: a shorter fill is a prefix of it.
TEST(Rng, FillMatchesScalarAcrossSliceCounts) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr std::size_t kSlice = kBulkSliceBytes;
  constexpr std::size_t kMaxLen = 5 * kSlice + 3;
  constexpr std::uint64_t kSeed = 0xF111;
  std::vector<unsigned char> want(kMaxLen);
  Rng{kSeed}.fill_scalar(want.data(), want.size());

  std::vector<unsigned char> buf(2 * kMiB + 64 + kMaxLen + 64);
  const std::size_t lead =
      (2 * kMiB - reinterpret_cast<std::uintptr_t>(buf.data()) % (2 * kMiB)) %
      (2 * kMiB);
  for (const std::size_t off : {std::size_t{0}, std::size_t{40}, std::size_t{3}}) {
    unsigned char* const dst = buf.data() + lead + off;
    for (std::size_t slices = 1; slices <= 4; ++slices) {
      for (const std::size_t n :
           {slices * kSlice - 64, slices * kSlice, slices * kSlice + 67}) {
        std::memset(dst + n, 0xA5, 64);
        Rng r{kSeed};
        r.fill(dst, n);
        ASSERT_EQ(std::memcmp(dst, want.data(), n), 0)
            << "offset " << off << " length " << n;
        ASSERT_TRUE(std::all_of(dst + n, dst + n + 64,
                                [](unsigned char b) { return b == 0xA5; }))
            << "offset " << off << " length " << n << " overran";
        Rng after{kSeed + (n + 7) / 8 * Rng::kGamma};
        ASSERT_EQ(r.next(), after.next()) << "offset " << off << " length " << n;
      }
    }
    Rng r{kSeed};
    r.fill(dst, kMaxLen);  // 5 slices' worth, capped at 4
    ASSERT_EQ(std::memcmp(dst, want.data(), kMaxLen), 0) << "offset " << off;
  }
}

// The byte stream is part of the determinism contract: these FNV-1a-64
// values were computed with the scalar loop alone.
TEST(Rng, FillBytesAreGolden) {
  Rng s = Rng::stream(1, 3);
  std::vector<unsigned char> window(std::size_t{64} << 20);
  s.fill(window.data(), window.size());
  EXPECT_EQ(fnv1a64(window.data(), window.size()), 0x8d4ceb6d0ac7b767ull);
  s.fill(window.data(), window.size());
  EXPECT_EQ(fnv1a64(window.data(), window.size()), 0x2819074432c2c2f1ull);
  EXPECT_EQ(s.next(), 0xe4d5823a3eafb459ull);

  Rng r{2024};
  constexpr std::size_t kLen = (std::size_t{4} << 20) + 7;
  std::vector<unsigned char> buf(3 + kLen);
  r.fill(buf.data() + 3, kLen);
  EXPECT_EQ(fnv1a64(buf.data() + 3, kLen), 0x0c98935d2eadb3e0ull);
  EXPECT_EQ(r.next(), 0xbd35f7209941f4cfull);
}

// --- Paper anchors in the default cost model --------------------------------

TEST(CostModel, HostSmallMessageIs7us) {
  // Fig. 4: native 1-byte latency 7 us.
  EXPECT_EQ(CostModel::paper().host_small_msg_ns(), 7'000u);
}

TEST(CostModel, VphiRingRoundtripIs375us) {
  // Fig. 4: vPHI adds 375 us over native (382 - 7).
  EXPECT_EQ(CostModel::paper().vphi_ring_roundtrip_ns(), 375'000u);
}

TEST(CostModel, WakeupSchemeIs93PercentOfOverhead) {
  // Sec. IV-B breakdown: 93% of the virtualization overhead is the
  // frontend's sleep/wakeup scheme.
  const auto& m = CostModel::paper();
  const double frac = static_cast<double>(m.guest_wakeup_scheme_ns) /
                      static_cast<double>(m.vphi_ring_roundtrip_ns());
  EXPECT_NEAR(frac, 0.93, 0.005);
}

TEST(CostModel, HostDmaApproaches6p4GBs) {
  // Fig. 5: host remote read peaks at 6.4 GB/s.
  const auto& m = CostModel::paper();
  const std::uint64_t bytes = 64ull << 20;
  const Nanos t = m.dma_setup_ns + m.dma_transfer_ns(bytes, /*fragmented=*/false);
  const double gbps = static_cast<double>(bytes) / static_cast<double>(t);
  EXPECT_NEAR(gbps, 6.4, 0.1);
}

TEST(CostModel, FragmentedDmaApproaches4p6GBs) {
  // Fig. 5: vPHI remote read peaks at 4.6 GB/s = 72% of host. The loss
  // splits between per-page scatter-gather on pinned guest memory and the
  // ring round trip each 16 MiB RMA chunk pays: raw fragmented DMA alone
  // runs ~5 GB/s, and the serial 4-chunk walk over 64 MiB lands at ~4.5.
  const auto& m = CostModel::paper();
  const std::uint64_t bytes = 64ull << 20;
  const Nanos dma = m.dma_setup_ns + m.dma_transfer_ns(bytes, /*fragmented=*/true);
  EXPECT_NEAR(static_cast<double>(bytes) / static_cast<double>(dma), 5.0, 0.1);

  const std::uint64_t chunk = 16ull << 20;  // FrontendConfig::rma_chunk
  const Nanos per_chunk = m.vphi_ring_roundtrip_ns() + m.dma_setup_ns +
                          m.dma_transfer_ns(chunk, /*fragmented=*/true);
  const Nanos total = 4 * per_chunk;
  const double gbps = static_cast<double>(bytes) / static_cast<double>(total);
  EXPECT_NEAR(gbps, 4.5, 0.1);
}

TEST(CostModel, FragmentedNeverFasterThanContiguous) {
  const auto& m = CostModel::paper();
  for (std::uint64_t bytes : {1ull, 4096ull, 65536ull, 1ull << 20, 64ull << 20}) {
    EXPECT_GE(m.dma_transfer_ns(bytes, true), m.dma_transfer_ns(bytes, false));
  }
}

TEST(CostModel, MicTopologyMatches3120P) {
  const auto& m = CostModel::paper();
  EXPECT_EQ(m.mic_cores, 57u);
  EXPECT_EQ(m.mic_reserved_cores, 1u);
  EXPECT_EQ(m.mic_threads_per_core, 4u);
  // 56 usable cores x {1,2,4} threads = the paper's 56/112/224 sweeps.
  EXPECT_EQ((m.mic_cores - m.mic_reserved_cores) * 1, 56u);
  EXPECT_EQ((m.mic_cores - m.mic_reserved_cores) * 2, 112u);
  EXPECT_EQ((m.mic_cores - m.mic_reserved_cores) * 4, 224u);
}

}  // namespace
}  // namespace vphi::sim
