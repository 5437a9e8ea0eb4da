#include "scif/stream.hpp"

#include <algorithm>
#include <cstring>

namespace vphi::scif {

sim::Expected<Stream::WriteResult> Stream::write(const void* src,
                                                 std::size_t len,
                                                 sim::Nanos ts, bool blocking) {
  const auto* bytes = static_cast<const std::byte*>(src);
  std::size_t written = 0;
  sim::MutexLock lock(mu_);
  while (written < len) {
    if (reset_) return sim::Status::kConnectionReset;
    std::size_t space = capacity_ - unread_;
    if (space == 0) {
      if (!blocking) break;
      while (unread_ >= capacity_ && !reset_) writable_.wait(mu_);
      continue;
    }
    const std::size_t chunk = std::min(space, len - written);
    Segment seg;
    seg.ts = ts;
    seg.data.assign(bytes + written, bytes + written + chunk);
    segments_.push_back(std::move(seg));
    unread_ += chunk;
    written += chunk;
    readable_.notify_all();
  }
  if (written == 0 && len > 0) return sim::Status::kWouldBlock;
  return WriteResult{written};
}

sim::Expected<Stream::ReadResult> Stream::read(void* dst, std::size_t len,
                                               bool blocking) {
  auto* out = static_cast<std::byte*>(dst);
  ReadResult result;
  sim::MutexLock lock(mu_);
  while (result.read < len) {
    if (unread_ == 0) {
      if (reset_) {
        // Drained a reset stream: report what we got, or the reset itself.
        if (result.read > 0) return result;
        return sim::Status::kConnectionReset;
      }
      if (!blocking) break;
      while (unread_ == 0 && !reset_) readable_.wait(mu_);
      continue;
    }
    Segment& seg = segments_.front();
    const std::size_t chunk = std::min(seg.unread(), len - result.read);
    std::memcpy(out + result.read, seg.data.data() + seg.consumed, chunk);
    seg.consumed += chunk;
    result.newest_ts = std::max(result.newest_ts, seg.ts);
    if (seg.unread() == 0) segments_.pop_front();
    unread_ -= chunk;
    result.read += chunk;
    writable_.notify_all();
  }
  if (result.read == 0 && len > 0) return sim::Status::kWouldBlock;
  return result;
}

std::size_t Stream::available() const {
  sim::MutexLock lock(mu_);
  return unread_;
}

std::size_t Stream::window() const {
  sim::MutexLock lock(mu_);
  return capacity_ - unread_;
}

void Stream::reset() {
  {
    sim::MutexLock lock(mu_);
    reset_ = true;
  }
  readable_.notify_all();
  writable_.notify_all();
}

bool Stream::is_reset() const {
  sim::MutexLock lock(mu_);
  return reset_;
}

}  // namespace vphi::scif
