#include "sim/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/actor.hpp"
#include "sim/trace.hpp"

namespace vphi::sim {

namespace {

LogLevel level_from_env() {
  const char* env = std::getenv("VPHI_LOG");
  if (env == nullptr) return LogLevel::kOff;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "trace") == 0) return LogLevel::kTrace;
  return LogLevel::kOff;
}

std::atomic<int> g_level{static_cast<int>(level_from_env())};
Mutex g_io_mu;

}  // namespace

const char* level_letter(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kDebug: return "D";
    case LogLevel::kTrace: return "T";
    default: return "?";
  }
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_line(LogLevel level, std::string_view component, std::string_view msg) {
  if (static_cast<int>(log_level()) < static_cast<int>(level)) return;
  // Every emitted line also lands in the tracer's record ring, stamped with
  // the calling actor's simulated clock, tracing enabled or not, so a
  // flight-recorder dump interleaves log lines with span events on one
  // simulated-time axis.
  tracer().record_log(level, component, msg, this_actor().now());
  MutexLock lock(g_io_mu);
  std::fprintf(stderr, "[%s %.*s] %.*s\n", level_letter(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace vphi::sim
