// Minimal leveled logger.  Quiet by default so bench output stays clean;
// tests and examples can raise the level, and the SS_LOG_LEVEL environment
// variable (debug|info|warn|error|off) sets the starting level without a
// code change — handy for the multi-process deployment where worker
// processes have no flag plumbing of their own.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace ss {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide minimum level; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Parse "debug" / "info" / "warn" / "error" / "off" (case-sensitive);
/// nullopt for anything else.  Used for SS_LOG_LEVEL and CLI --log-level.
[[nodiscard]] std::optional<LogLevel> parse_log_level(const std::string& name) noexcept;

/// Emit one line to stderr, prefixed with a level tag, seconds since
/// process start (monotonic), and a compact thread id.  Thread-safe.
void log_line(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_line(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

}  // namespace ss
