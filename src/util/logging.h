#pragma once

#include <sstream>
#include <string>

/// \file logging.h
/// \brief Lightweight leveled logging to stderr.
///
/// Usage: `GOGGLES_LOG(INFO) << "trained " << n << " steps";`
/// The minimum emitted level defaults to WARNING and can be overridden with
/// the `GOGGLES_LOG_LEVEL` environment variable (DEBUG/INFO/WARNING/ERROR).

namespace goggles {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Returns the minimum level that will be emitted.
LogLevel MinLogLevel();

namespace internal {

// Token aliases so GOGGLES_LOG(INFO) expands to a valid constant.
inline constexpr LogLevel kDEBUG = LogLevel::kDebug;
inline constexpr LogLevel kINFO = LogLevel::kInfo;
inline constexpr LogLevel kWARNING = LogLevel::kWarning;
inline constexpr LogLevel kERROR = LogLevel::kError;

/// \brief Accumulates one log line and flushes it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace goggles

#define GOGGLES_LOG(level)                                \
  ::goggles::internal::LogMessage(::goggles::internal::k##level, \
                                  __FILE__, __LINE__)
