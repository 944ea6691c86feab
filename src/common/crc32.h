#ifndef START_COMMON_CRC32_H_
#define START_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace start::common {

/// \brief CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `n` bytes.
///
/// The per-record checksum of the STTN container (tensor/serialize.h), the
/// one format every serialized artifact in the repo uses. `seed` chains calls:
/// Crc32(b, n2, Crc32(a, n1)) == Crc32(concat(a, b), n1 + n2).
///
/// Computed by slicing-by-16: sixteen 256-entry tables fold 16 bytes per step,
/// and a bytewise loop takes the last n % 16. The values and the chaining
/// contract are unchanged from the classic one-table bytewise loop.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace start::common

#endif  // START_COMMON_CRC32_H_
