#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

/// \file binary_io.h
/// \brief Shared binary serialization primitives: POD stream IO, an
/// in-memory buffer writer/reader pair, and CRC-32.
///
/// Used by `nn/serialize` (backbone weight cache) and by the `serve/`
/// artifact store, which frames CRC-checked sections with these helpers.

namespace goggles::io {

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `n`
/// bytes, computed eight bytes per step (slicing-by-8). Chain incremental
/// updates by passing the previous return value as `crc` (starts at 0).
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// \brief Writes a trivially-copyable value to a binary stream.
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "WritePod requires a trivially-copyable type");
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// \brief Reads a trivially-copyable value; false on short read.
template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "ReadPod requires a trivially-copyable type");
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

/// \brief Append-only byte buffer for building serialized payloads in
/// memory (so a checksum can be computed before anything hits disk).
class BufferWriter {
 public:
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BufferWriter::Pod requires a trivially-copyable type");
    Bytes(&value, sizeof(T));
  }

  void Bytes(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// \brief Sequential reader over a byte buffer. Every accessor returns
/// false instead of reading past the end, so truncated payloads surface
/// as clean parse failures.
class BufferReader {
 public:
  BufferReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::string& buffer)
      : BufferReader(buffer.data(), buffer.size()) {}

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BufferReader::Pod requires a trivially-copyable type");
    return Bytes(value, sizeof(T));
  }

  bool Bytes(void* out, size_t n) {
    if (n > remaining()) return false;
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (n == 0) return true;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace goggles::io
