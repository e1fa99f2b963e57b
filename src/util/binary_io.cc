#include "util/binary_io.h"

#include <array>

namespace goggles::io {
namespace {

/// Slicing-by-8 tables: table[0] is the byte-wise CRC table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables BuildCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// The 32-bit little-endian word at `p`, on any host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  static const Crc32Tables t = BuildCrc32Tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    const uint32_t lo = LoadLe32(bytes) ^ c, hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace goggles::io
