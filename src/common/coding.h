// Fixed-width little-endian encode/decode helpers for on-media formats.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/types.h"

namespace face {

// The helpers copy host bytes, so the formats are little-endian only on a
// little-endian host; refuse to build anywhere else.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "on-media encodings assume a little-endian host");

inline void EncodeFixed16(char* dst, uint16_t v) { memcpy(dst, &v, 2); }
inline void EncodeFixed32(char* dst, uint32_t v) { memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { memcpy(dst, &v, 8); }

inline uint16_t DecodeFixed16(const char* src) {
  uint16_t v;
  memcpy(&v, src, 2);
  return v;
}
inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  memcpy(&v, src, 8);
  return v;
}

// --- varints (LEB128) for compact on-media streams (trace files) -------------

/// Append `v` as a base-128 varint (1..10 bytes).
inline void PutVarint64(std::string* dst, uint64_t v) {
  char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<char>(v);
  dst->append(buf, n);
}

/// Decode a varint at *p (bounded by limit). Returns the byte past the
/// varint, or nullptr on truncation/overflow.
inline const char* GetVarint64(const char* p, const char* limit, uint64_t* v) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && p < limit; shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(*p++);
    // The 10th byte holds only bit 63: anything beyond overflows u64.
    if (shift == 63 && (byte & 0x7e) != 0) return nullptr;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
  }
  return nullptr;
}

/// Map a signed delta onto an unsigned varint-friendly value (zigzag).
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// --- Rid <-> index value codec (10 bytes on media) ---------------------------
// The one encoding every secondary index uses to store heap Rids as values.

inline constexpr uint32_t kRidValueSize = 10;

inline std::string EncodeRid(Rid rid) {
  std::string v(kRidValueSize, '\0');
  EncodeFixed64(v.data(), rid.page_id);
  EncodeFixed16(v.data() + 8, rid.slot);
  return v;
}

inline Rid DecodeRid(std::string_view v) {
  return Rid{DecodeFixed64(v.data()), DecodeFixed16(v.data() + 8)};
}

inline void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  dst->append(buf, 2);
}
inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}
inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

}  // namespace face
