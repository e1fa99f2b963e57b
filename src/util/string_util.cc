#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace goggles {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string FormatPercent(double fraction, int decimals) {
  return StrFormat("%.*f", decimals, fraction * 100.0);
}

std::string FormatDouble(double value, int decimals) {
  return StrFormat("%.*f", decimals, value);
}

}  // namespace goggles
