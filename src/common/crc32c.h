// CRC32-C (Castagnoli) used for page and WAL record checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace face {
namespace crc32c {

/// Returns the CRC32-C of data[0, n) seeded with `init_crc` (pass 0 for a
/// fresh checksum; pass a previous result to extend it over more bytes).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// Extend's kernels, fastest first; it runs the first the CPU supports.
/// Tests and micro-benchmarks call each through ExtendWith.
enum class Kernel {
  kFold,    ///< carry-less-multiply folding, 256 B a step (VPCLMULQDQ)
  kCrc32q,  ///< three interleaved SSE4.2 crc32q chains
  kTable,   ///< slicing-by-8 tables (any CPU)
};

/// True if this CPU can run `kernel`.
bool Supported(Kernel kernel);

/// Extend through `kernel`, which must be Supported.
uint32_t ExtendWith(Kernel kernel, uint32_t init_crc, const char* data,
                    size_t n);

/// CRC32-C of data[0, n).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRC stored on media so that a CRC of bytes that contain an embedded
/// CRC does not collide trivially (same trick as LevelDB/RocksDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace face
