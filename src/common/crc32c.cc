// CRC32-C. Extend runs the fastest of three kernels the CPU supports,
// chosen once at startup with __builtin_cpu_supports (there is no flag):
// VPCLMULQDQ folding (ExtendFold), three interleaved SSE4.2 crc32q chains
// (ExtendHw), or slicing-by-8 tables (ExtendTable). All return the same
// CRC; every constant and table is computed at startup from the polynomial.
#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace face {
namespace crc32c {
namespace {

// Slicing-by-8 CRC32-C: eight lookup tables generated at startup from the
// Castagnoli polynomial (reflected form 0x82f63b78). Table 0 alone is the
// classic one-byte-at-a-time table; tables 1..7 fold 8 input bytes per
// iteration, ~8x fewer dependent table lookups on the page-checksum hot
// path. Same polynomial, same function, bit-identical results.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Tables MakeTables() {
  Tables tables;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = (crc >> 8) ^ tables.t[0][crc & 0xff];
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = MakeTables();
  return tables;
}

#if defined(__x86_64__) && defined(__GNUC__)
// SSE4.2 CRC32 instruction path: the same Castagnoli polynomial the tables
// implement, so results are bit-identical. Large inputs (page checksums,
// 4 KB each) run THREE independent crc32q chains over adjacent thirds of
// the buffer — the instruction has 3-cycle latency but 1-cycle throughput,
// so one chain leaves the unit ~2/3 idle — and the partial results are
// recombined with a precomputed zero-extension operator (a 4x256 table
// applying "advance this CRC register through kLaneBytes zero bytes", the
// standard GF(2) linearity trick behind every multi-lane CRC). Selected
// once at startup via cpuid.

/// Bytes per interleaved lane. 3 lanes x 168 qwords = 4032 bytes per
/// tri-block: a 4 KB page checksum is one tri-block plus a short tail.
constexpr size_t kLaneBytes = 1344;

/// Zero-extension operator Z(r) = raw CRC register r advanced through
/// kLaneBytes zero bytes, as four byte-indexed lookup tables.
struct ShiftTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  uint32_t Apply(uint32_t r) const {
    return t[0][r & 0xff] ^ t[1][(r >> 8) & 0xff] ^ t[2][(r >> 16) & 0xff] ^
           t[3][r >> 24];
  }
};

ShiftTables MakeShiftTables() {
  const auto& t0 = GetTables().t[0];
  // Advance each single-bit basis register through kLaneBytes zero bytes
  // with the raw one-byte table step; every Z table entry is an XOR of
  // basis images (Z is linear over GF(2)).
  std::array<uint32_t, 32> basis;
  for (uint32_t bit = 0; bit < 32; ++bit) {
    uint32_t r = 1u << bit;
    for (size_t i = 0; i < kLaneBytes; ++i) {
      r = t0[r & 0xff] ^ (r >> 8);
    }
    basis[bit] = r;
  }
  ShiftTables s;
  for (uint32_t b = 0; b < 4; ++b) {
    for (uint32_t v = 0; v < 256; ++v) {
      uint32_t r = 0;
      for (uint32_t j = 0; j < 8; ++j) {
        if (v & (1u << j)) r ^= basis[8 * b + j];
      }
      s.t[b][v] = r;
    }
  }
  return s;
}

const ShiftTables& GetShiftTables() {
  static const ShiftTables tables = MakeShiftTables();
  return tables;
}

__attribute__((target("sse4.2"))) uint32_t ExtendHw(uint32_t init_crc,
                                                    const char* data,
                                                    size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;

  if (n >= 3 * kLaneBytes) {
    const ShiftTables& shift = GetShiftTables();
    do {
      // c0 continues the running register; c1/c2 are seeded zero so the
      // recombination below is a pure XOR of zero-extended lanes.
      uint64_t c0 = crc;
      uint64_t c1 = 0;
      uint64_t c2 = 0;
      for (size_t i = 0; i < kLaneBytes; i += 8) {
        uint64_t v0, v1, v2;
        memcpy(&v0, p + i, 8);
        memcpy(&v1, p + kLaneBytes + i, 8);
        memcpy(&v2, p + 2 * kLaneBytes + i, 8);
        c0 = __builtin_ia32_crc32di(c0, v0);
        c1 = __builtin_ia32_crc32di(c1, v1);
        c2 = __builtin_ia32_crc32di(c2, v2);
      }
      crc = shift.Apply(shift.Apply(static_cast<uint32_t>(c0)) ^
                        static_cast<uint32_t>(c1)) ^
            static_cast<uint32_t>(c2);
      p += 3 * kLaneBytes;
      n -= 3 * kLaneBytes;
    } while (n >= 3 * kLaneBytes);
  }
  while (n >= 8) {
    uint64_t v;
    memcpy(&v, p, 8);
    crc = __builtin_ia32_crc32di(crc, v);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = __builtin_ia32_crc32qi(crc32, *p++);
    --n;
  }
  return crc32 ^ 0xffffffffu;
}

// Folding: four 512-bit accumulators fold 256 B a step, merge through
// 512- and 128-bit folds, and two crc32q from 0 reduce the last 16 bytes;
// a tail under 256 B takes ExtendHw. A 16-byte chunk (bit t = coefficient
// of x^(127-t)) moved D bits on is, mod P, a * x^(D+63) * x + b * x^(D-1)
// * x for its low and high qwords a, b; a carry-less product of reflected
// qwords supplies the x when a constant holds x^d at bit 63-d.
/// x^n mod P with the coefficient of x^d at bit 63-d.
uint64_t XnModP(uint32_t n) {
  uint32_t r = 0x80000000u;  // x^0 in the reflected 32-bit register
  for (uint32_t i = 0; i < n; ++i) r = (r >> 1) ^ ((r & 1) ? kPoly : 0);
  return static_cast<uint64_t>(r) << 32;
}

/// {x^(D+63), x^(D-1)} mod P in the low and high qword.
__m128i FoldKeys(uint32_t d) {
  return _mm_set_epi64x(static_cast<long long>(XnModP(d - 1)),
                        static_cast<long long>(XnModP(d + 63)));
}

#define FACE_FOLD_TARGET \
  __attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.2")))

/// Fold each 128-bit lane of `acc` by the distance `keys` encode and add
/// `next`.
FACE_FOLD_TARGET __m512i Fold(__m512i acc, __m512i keys, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, keys, 0x00),
                                   _mm512_clmulepi64_epi128(acc, keys, 0x11),
                                   next, 0x96);  // a ^ b ^ c
}

FACE_FOLD_TARGET __m128i Fold(__m128i acc, __m128i keys, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, keys, 0x00),
                                     _mm_clmulepi64_si128(acc, keys, 0x11)),
                       next);
}

FACE_FOLD_TARGET uint32_t ExtendFold(uint32_t init_crc, const char* data,
                                     size_t n) {
  if (n < 256) return ExtendHw(init_crc, data, n);
  // Distances: one 256-byte step, then the 512- and 128-bit merges.
  static const __m128i k2048 = FoldKeys(2048);
  static const __m128i k512 = FoldKeys(512);
  static const __m128i k128 = FoldKeys(128);
  const __m512i step = _mm512_maskz_broadcast_i32x4(0xffff, k2048);
  // The running register joins the message as an XOR into its first
  // four bytes.
  __m512i a0 = _mm512_xor_si512(
      _mm512_loadu_si512(data),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(
          static_cast<int>(init_crc ^ 0xffffffffu))));
  __m512i a1 = _mm512_loadu_si512(data + 64);
  __m512i a2 = _mm512_loadu_si512(data + 128);
  __m512i a3 = _mm512_loadu_si512(data + 192);
  const char* p = data + 256;
  n -= 256;
  for (; n >= 256; p += 256, n -= 256) {
    a0 = Fold(a0, step, _mm512_loadu_si512(p));
    a1 = Fold(a1, step, _mm512_loadu_si512(p + 64));
    a2 = Fold(a2, step, _mm512_loadu_si512(p + 128));
    a3 = Fold(a3, step, _mm512_loadu_si512(p + 192));
  }
  const __m512i merge = _mm512_maskz_broadcast_i32x4(0xffff, k512);
  a3 = Fold(Fold(Fold(a0, merge, a1), merge, a2), merge, a3);
  // Through memory: GCC 12's lane-extract intrinsics warn spuriously.
  __m128i lanes[4];
  _mm512_storeu_si512(lanes, a3);
  const __m128i c =
      Fold(Fold(Fold(lanes[0], k128, lanes[1]), k128, lanes[2]), k128,
           lanes[3]);
  uint64_t crc = _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(c)));
  crc = _mm_crc32_u64(crc, static_cast<uint64_t>(_mm_extract_epi64(c, 1)));
  return ExtendHw(static_cast<uint32_t>(crc) ^ 0xffffffffu, p, n);
}

#undef FACE_FOLD_TARGET

const bool kHaveHwCrc = __builtin_cpu_supports("sse4.2");
const bool kHaveFold = kHaveHwCrc && __builtin_cpu_supports("pclmul") &&
                       __builtin_cpu_supports("avx512f") &&
                       __builtin_cpu_supports("vpclmulqdq");
#endif

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  const auto& t = GetTables().t;
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint64_t v;
    memcpy(&v, p, 8);
    v ^= crc;
    crc = t[7][v & 0xff] ^ t[6][(v >> 8) & 0xff] ^ t[5][(v >> 16) & 0xff] ^
          t[4][(v >> 24) & 0xff] ^ t[3][(v >> 32) & 0xff] ^
          t[2][(v >> 40) & 0xff] ^ t[1][(v >> 48) & 0xff] ^ t[0][v >> 56];
    p += 8;
    n -= 8;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace

bool Supported(Kernel kernel) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (kernel == Kernel::kFold) return kHaveFold;
  if (kernel == Kernel::kCrc32q) return kHaveHwCrc;
#endif
  return kernel == Kernel::kTable;
}

uint32_t ExtendWith(Kernel kernel, uint32_t init_crc, const char* data,
                    size_t n) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (kernel == Kernel::kFold) return ExtendFold(init_crc, data, n);
  if (kernel == Kernel::kCrc32q) return ExtendHw(init_crc, data, n);
#endif
  return ExtendTable(init_crc, data, n);
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (kHaveFold) return ExtendFold(init_crc, data, n);
  if (kHaveHwCrc) return ExtendHw(init_crc, data, n);
#endif
  return ExtendTable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace face
