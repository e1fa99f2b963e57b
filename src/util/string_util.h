#pragma once

#include <string>
#include <vector>

/// \file string_util.h
/// \brief Small string formatting and manipulation helpers.

namespace goggles {

/// \brief printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// \brief Splits `s` on the character `sep` (no empty-token collapsing).
std::vector<std::string> Split(const std::string& s, char sep);

/// \brief Removes leading and trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// \brief Formats a fraction (0..1) as a percentage like "97.83".
std::string FormatPercent(double fraction, int decimals = 2);

/// \brief Formats a double with fixed decimals.
std::string FormatDouble(double value, int decimals = 2);

}  // namespace goggles
