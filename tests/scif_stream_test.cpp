// Unit + property tests for the SCIF byte stream (flow control, timestamps,
// reset semantics, cross-thread reassembly).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "scif/stream.hpp"
#include "sim/rng.hpp"

namespace vphi::scif {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  sim::Rng rng{seed};
  rng.fill(v.data(), v.size());
  return v;
}

TEST(Stream, WriteReadRoundtrip) {
  Stream s;
  const auto src = pattern_bytes(1'000, 1);
  auto w = s.write(src.data(), src.size(), 42, true);
  ASSERT_TRUE(w);
  EXPECT_EQ(w->written, 1'000u);
  EXPECT_EQ(s.available(), 1'000u);

  std::vector<std::uint8_t> dst(1'000);
  auto r = s.read(dst.data(), dst.size(), true);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->read, 1'000u);
  EXPECT_EQ(r->newest_ts, 42u);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(s.available(), 0u);
}

TEST(Stream, PartialReadsPreserveOrder) {
  Stream s;
  const auto src = pattern_bytes(300, 2);
  ASSERT_TRUE(s.write(src.data(), 100, 1, true));
  ASSERT_TRUE(s.write(src.data() + 100, 200, 2, true));

  std::vector<std::uint8_t> dst(300);
  auto r1 = s.read(dst.data(), 150, true);
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->read, 150u);
  EXPECT_EQ(r1->newest_ts, 2u) << "read crossed into the second segment";
  auto r2 = s.read(dst.data() + 150, 150, true);
  ASSERT_TRUE(r2);
  EXPECT_EQ(dst, src);
}

TEST(Stream, NonBlockingReadEmptyReturnsWouldBlock) {
  Stream s;
  std::uint8_t b;
  auto r = s.read(&b, 1, false);
  EXPECT_EQ(r.status(), sim::Status::kWouldBlock);
}

TEST(Stream, NonBlockingWriteFullReturnsWouldBlock) {
  Stream s{16};
  const auto src = pattern_bytes(16, 3);
  ASSERT_TRUE(s.write(src.data(), 16, 0, false));
  auto w = s.write(src.data(), 1, 0, false);
  EXPECT_EQ(w.status(), sim::Status::kWouldBlock);
  EXPECT_EQ(s.window(), 0u);
}

TEST(Stream, NonBlockingWritePartiallyFits) {
  Stream s{10};
  const auto src = pattern_bytes(16, 4);
  auto w = s.write(src.data(), 16, 0, false);
  ASSERT_TRUE(w);
  EXPECT_EQ(w->written, 10u);
}

TEST(Stream, BlockingWriteWaitsForReader) {
  Stream s{8};
  const auto src = pattern_bytes(64, 5);
  std::vector<std::uint8_t> dst(64);
  std::thread writer([&] {
    auto w = s.write(src.data(), src.size(), 7, true);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->written, 64u);
  });
  auto r = s.read(dst.data(), dst.size(), true);
  writer.join();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->read, 64u);
  EXPECT_EQ(dst, src);
}

TEST(Stream, BlockingReadWaitsForWriter) {
  Stream s;
  std::vector<std::uint8_t> dst(32);
  std::thread writer([&] {
    const auto src = pattern_bytes(32, 6);
    ASSERT_TRUE(s.write(src.data(), src.size(), 9, true));
  });
  auto r = s.read(dst.data(), dst.size(), true);
  writer.join();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->read, 32u);
  EXPECT_EQ(r->newest_ts, 9u);
}

TEST(Stream, ResetFailsWriters) {
  Stream s;
  s.reset();
  std::uint8_t b = 0;
  EXPECT_EQ(s.write(&b, 1, 0, true).status(), sim::Status::kConnectionReset);
}

TEST(Stream, ResetDrainsThenFailsReaders) {
  Stream s;
  const auto src = pattern_bytes(10, 7);
  ASSERT_TRUE(s.write(src.data(), 10, 0, true));
  s.reset();
  std::vector<std::uint8_t> dst(10);
  auto r = s.read(dst.data(), 10, true);
  ASSERT_TRUE(r) << "buffered data still readable after reset";
  EXPECT_EQ(r->read, 10u);
  auto r2 = s.read(dst.data(), 1, true);
  EXPECT_EQ(r2.status(), sim::Status::kConnectionReset);
}

TEST(Stream, ResetPartiallySatisfiedBlockingReadReturnsShort) {
  Stream s;
  const auto src = pattern_bytes(5, 8);
  ASSERT_TRUE(s.write(src.data(), 5, 0, true));
  std::vector<std::uint8_t> dst(10);
  std::thread resetter([&] { s.reset(); });
  auto r = s.read(dst.data(), 10, true);
  resetter.join();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->read, 5u) << "short read, not an error, when data preceded reset";
}

TEST(Stream, ResetUnblocksWaitingWriter) {
  Stream s{4};
  const auto src = pattern_bytes(16, 9);
  ASSERT_TRUE(s.write(src.data(), 4, 0, true));
  sim::Status got = sim::Status::kOk;
  std::thread writer([&] { got = s.write(src.data(), 16, 0, true).status(); });
  s.reset();
  writer.join();
  EXPECT_EQ(got, sim::Status::kConnectionReset);
}

TEST(Stream, TimestampsMonotoneAcrossSegments) {
  Stream s;
  std::uint8_t b = 0;
  ASSERT_TRUE(s.write(&b, 1, 100, true));
  ASSERT_TRUE(s.write(&b, 1, 200, true));
  std::uint8_t out[2];
  auto head = s.read(out, 1, true);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->newest_ts, 100u) << "the oldest byte first";
  auto r = s.read(out + 1, 1, true);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->newest_ts, 200u);
}

TEST(Stream, TotalWrittenAccumulates) {
  Stream s;
  const auto src = pattern_bytes(100, 10);
  ASSERT_TRUE(s.write(src.data(), 100, 0, true));
  ASSERT_TRUE(s.write(src.data(), 100, 0, true));
  EXPECT_EQ(s.available(), 200u);
}

// Property sweep: any split of a message into writes, reassembled by any
// split of reads, yields the identical byte sequence.
class StreamReassemblyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamReassemblyTest, ArbitrarySplitsReassemble) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng{seed};
  const std::size_t total = 1'024 + rng.below(16'384);
  const auto src = pattern_bytes(total, seed * 31 + 1);

  Stream s{4'096};
  std::vector<std::uint8_t> dst(total);

  std::thread writer([&] {
    std::size_t off = 0;
    sim::Rng wr{seed * 7 + 3};
    while (off < total) {
      const std::size_t n = 1 + wr.below(2'000);
      const std::size_t chunk = std::min(n, total - off);
      auto w = s.write(src.data() + off, chunk, off, true);
      ASSERT_TRUE(w);
      off += w->written;
    }
  });

  std::size_t off = 0;
  sim::Rng rr{seed * 13 + 5};
  while (off < total) {
    const std::size_t n = 1 + rr.below(3'000);
    const std::size_t chunk = std::min(n, total - off);
    auto r = s.read(dst.data() + off, chunk, true);
    ASSERT_TRUE(r);
    off += r->read;
  }
  writer.join();
  EXPECT_EQ(dst, src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamReassemblyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vphi::scif
