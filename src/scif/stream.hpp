// Flow-controlled byte stream with simulated-time segments.
//
// scif_send/scif_recv have reliable byte-stream semantics with a bounded
// in-flight window (the driver's receive buffer). Each written segment
// carries the simulated time it becomes visible to the reader; a reader
// merges its clock with the newest segment it consumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/status.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace vphi::scif {

class Stream {
 public:
  /// `capacity` bounds unread bytes; writers of more block (flow control).
  explicit Stream(std::size_t capacity = 4ull << 20) : capacity_(capacity) {}

  struct WriteResult {
    std::size_t written = 0;
  };
  struct ReadResult {
    std::size_t read = 0;
    sim::Nanos newest_ts = 0;  ///< visibility time of the last byte consumed
  };

  /// Append up to `len` bytes visible to readers at `ts`. If `blocking`,
  /// waits for window space and writes everything (or fails on reset);
  /// otherwise writes what fits now and may return 0 written with kWouldBlock.
  sim::Expected<WriteResult> write(const void* src, std::size_t len,
                                   sim::Nanos ts, bool blocking)
      VPHI_EXCLUDES(mu_);

  /// Consume up to `len` bytes. If `blocking`, waits until *all* `len` bytes
  /// have been read (SCIF_RECV_BLOCK semantics) or the stream resets;
  /// otherwise returns whatever is available (kWouldBlock if none).
  sim::Expected<ReadResult> read(void* dst, std::size_t len, bool blocking)
      VPHI_EXCLUDES(mu_);

  /// Bytes currently readable.
  std::size_t available() const VPHI_EXCLUDES(mu_);
  /// Space a non-blocking writer could use right now.
  std::size_t window() const VPHI_EXCLUDES(mu_);

  /// Peer closed: readers drain remaining bytes then get kConnectionReset;
  /// writers fail immediately.
  void reset() VPHI_EXCLUDES(mu_);
  bool is_reset() const VPHI_EXCLUDES(mu_);

 private:
  struct Segment {
    std::vector<std::byte> data;
    std::size_t consumed = 0;  ///< bytes already read out of `data`
    sim::Nanos ts = 0;

    std::size_t unread() const noexcept { return data.size() - consumed; }
  };

  std::size_t capacity_;
  mutable sim::Mutex mu_;
  sim::CondVar readable_;
  sim::CondVar writable_;
  std::deque<Segment> segments_ VPHI_GUARDED_BY(mu_);
  std::size_t unread_ VPHI_GUARDED_BY(mu_) = 0;
  bool reset_ VPHI_GUARDED_BY(mu_) = false;
};

}  // namespace vphi::scif
