#include "common/crc32.h"

#include <array>
#include <cstring>

namespace start::common {

namespace {

// Slicing-by-16 tables: t[0] is the classic bytewise table of the reflected
// IEEE polynomial; t[k][i] is the CRC of byte i followed by k zero bytes, so
// one step folds 16 input bytes with 16 independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 16>;

Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

// The word-at-a-time step reads bytes 0..3 as the low..high byte of a word.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "Crc32's slicing step assumes a little-endian host");

uint32_t LoadWord(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const Tables t = MakeTables();
  uint32_t crc = seed ^ 0xffffffffu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (; n >= 16; n -= 16, p += 16) {
    const uint32_t w0 = LoadWord(p) ^ crc;
    const uint32_t w1 = LoadWord(p + 4);
    const uint32_t w2 = LoadWord(p + 8);
    const uint32_t w3 = LoadWord(p + 12);
    crc = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
          t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
          t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
          t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
          t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
          t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
          t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
          t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace start::common
