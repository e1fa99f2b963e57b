#include "util/logging.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

namespace goggles {
namespace {

const LogLevel g_min_level = [] {
  if (const char* env = std::getenv("GOGGLES_LOG_LEVEL")) {
    if (std::strcmp(env, "DEBUG") == 0) return LogLevel::kDebug;
    if (std::strcmp(env, "INFO") == 0) return LogLevel::kInfo;
    if (std::strcmp(env, "WARNING") == 0) return LogLevel::kWarning;
    if (std::strcmp(env, "ERROR") == 0) return LogLevel::kError;
  }
  return LogLevel::kWarning;
}();

std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARNING";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

LogLevel MinLogLevel() { return g_min_level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= MinLogLevel()), level_(level) {
  if (enabled_) {
    const char* base = std::strrchr(file, '/');
    stream_ << "[" << LevelName(level_) << " " << (base ? base + 1 : file)
            << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::cerr << stream_.str() << std::endl;
}

}  // namespace internal
}  // namespace goggles
