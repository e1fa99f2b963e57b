#include "util/env.h"

#include <cerrno>
#include <cmath>
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

int64_t GetEnvIntOr(const std::string& name, int64_t fallback) {
  const char* v = std::getenv(name.c_str());
  int64_t parsed = 0;
  return v != nullptr && ParseStrictInt(v, &parsed) ? parsed : fallback;
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

double GetEnvDoubleOr(const std::string& name, double fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') return fallback;
  // Non-finite covers overflow ("1e999" -> +-HUGE_VAL) and literal
  // "inf"/"nan"; underflow ("1e-400" -> denormal or zero) stays accepted,
  // the user meant ~0.
  if (!std::isfinite(parsed)) return fallback;
  return parsed;
}

}  // namespace goggles
