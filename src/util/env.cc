#include "util/env.h"

#include <cerrno>
#include <cstdlib>

#include "util/logging.h"

namespace goggles {
namespace {

/// Strict base-10 parse of a whole string: rejects empty values,
/// trailing garbage ("12abc") and out-of-range values rather than
/// silently truncating the parse.
bool ParseStrictInt(const char* text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<int64_t>(parsed);
  return true;
}

}  // namespace

std::string GetEnvOr(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? fallback : std::string(v);
}

int64_t GetEnvRangedIntOr(const std::string& name, int64_t fallback,
                          int64_t min_value, int64_t max_value) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  int64_t parsed = 0;
  if (!ParseStrictInt(v, &parsed) || parsed < min_value ||
      parsed > max_value) {
    GOGGLES_LOG(WARNING) << name << "='" << v << "' is not an integer in ["
                         << min_value << ", " << max_value << "]; using "
                         << fallback;
    return fallback;
  }
  return parsed;
}

}  // namespace goggles
