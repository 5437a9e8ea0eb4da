// Minimal leveled logger. Off by default; enable with set_log_level or the
// VPHI_LOG environment variable (error|warn|info|debug|trace).
#pragma once

#include <sstream>
#include <string_view>

namespace vphi::sim {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
  kTrace = 5,
};

LogLevel log_level() noexcept;
/// One-letter tag of a level ("E", "W", ...), as log lines print it.
const char* level_letter(LogLevel l) noexcept;
void set_log_level(LogLevel level) noexcept;

/// Emit one line (thread-safe) at the given level; no-op if filtered out.
void log_line(LogLevel level, std::string_view component, std::string_view msg);

namespace detail {
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogMessage() { log_line(level_, component_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace vphi::sim

#define VPHI_LOG(level, component)                                   \
  if (static_cast<int>(::vphi::sim::log_level()) >=                  \
      static_cast<int>(::vphi::sim::LogLevel::level))                \
  ::vphi::sim::detail::LogMessage(::vphi::sim::LogLevel::level, component)
