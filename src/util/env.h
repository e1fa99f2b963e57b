#pragma once

#include <cstdint>
#include <string>

/// \file env.h
/// \brief Environment-variable helpers for experiment knobs.

namespace goggles {

/// \brief Returns the environment variable `name`, or `fallback` if unset.
std::string GetEnvOr(const std::string& name, const std::string& fallback);

/// \brief Integer-valued environment variable that must also lie in
/// [`min_value`, `max_value`]. Malformed or out-of-range values log a
/// warning and return `fallback`, never a truncated or clamped value.
int64_t GetEnvRangedIntOr(const std::string& name, int64_t fallback,
                          int64_t min_value, int64_t max_value);

}  // namespace goggles
