// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum used by the storage durability layer for WAL records and page
// trailers. Portable software slicing-by-8 (eight table lookups per eight
// input bytes): no ISA requirements and no CPU dispatch, so every host
// computes the same values through the same code.
#ifndef RUIDX_UTIL_CRC32C_H_
#define RUIDX_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ruidx {
namespace util {

/// Returns the CRC32C of `data[0..len)`. Pass the previous return value as
/// `seed` to checksum a logical buffer in pieces; the default seed starts a
/// fresh checksum.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

}  // namespace util
}  // namespace ruidx

#endif  // RUIDX_UTIL_CRC32C_H_
