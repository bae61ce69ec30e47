// Byte-level encoding shared by the WAL and checkpoint codecs.
//
// Everything durable is fixed-width little-endian, written byte by byte —
// never memcpy of host structs — so a log produced on one host replays
// bit-identically on any other. Integrity is a 64-bit FNV-1a over each
// framed payload: cheap, deterministic, and entirely sufficient for
// detecting torn writes and flipped bits (this is a corruption detector,
// not a cryptographic MAC).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stableshard::durability {

/// Raw durable bytes (a WAL lane, a checkpoint blob, an encoded image).
using Blob = std::vector<std::uint8_t>;

/// 64-bit FNV-1a over `size` bytes.
inline std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline void AppendU8(Blob& out, std::uint8_t value) { out.push_back(value); }

inline void AppendU32(Blob& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

inline void AppendU64(Blob& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

inline void AppendI64(Blob& out, std::int64_t value) {
  AppendU64(out, static_cast<std::uint64_t>(value));
}

/// Bounds-checked sequential reader. Every Read* returns false on
/// exhaustion instead of aborting: decoders translate "ran out of bytes"
/// into torn-tail / truncated-section statuses, which are expected inputs
/// (a crash can interrupt any write), not programming errors.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return size_ - offset_; }

  bool ReadU8(std::uint8_t* out) {
    if (remaining() < 1) return false;
    *out = data_[offset_++];
    return true;
  }

  bool ReadU32(std::uint32_t* out) {
    if (remaining() < 4) return false;
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(data_[offset_++]) << shift;
    }
    *out = value;
    return true;
  }

  bool ReadU64(std::uint64_t* out) {
    if (remaining() < 8) return false;
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(data_[offset_++]) << shift;
    }
    *out = value;
    return true;
  }

  bool ReadI64(std::int64_t* out) {
    std::uint64_t value = 0;
    if (!ReadU64(&value)) return false;
    *out = static_cast<std::int64_t>(value);
    return true;
  }

  /// Read a u32 element count and reject it unless that many
  /// `entry_size`-byte entries fit in the remaining bytes: a count read
  /// from the medium must never size an allocation on its own.
  bool ReadCount(std::uint32_t* out, std::size_t entry_size) {
    std::uint32_t count = 0;
    if (!ReadU32(&count)) return false;
    if (count > remaining() / entry_size) return false;
    *out = count;
    return true;
  }

  bool Skip(std::size_t count) {
    if (remaining() < count) return false;
    offset_ += count;
    return true;
  }

  /// Consume `count` bytes and return a pointer to them (nullptr on
  /// exhaustion). The span aliases the underlying buffer.
  const std::uint8_t* ReadSpan(std::size_t count) {
    if (remaining() < count) return nullptr;
    const std::uint8_t* span = data_ + offset_;
    offset_ += count;
    return span;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace stableshard::durability
