#include "common/crc.h"

#include <bit>
#include <cstring>

namespace memdb {

namespace {

// The tables are built at compile time (constexpr constructors), so no
// dynamic initialization runs and no static-init order can bite.
// Slicing-by-8 tables for the CCITT polynomial 0x1021 (not reflected):
// t[0] is the classic byte-at-a-time table, and t[k][b] is the CRC of byte
// b followed by k zero bytes, so eight table lookups fold eight input bytes
// at once. Every keyspace lookup hashes its key's slot, so this runs on the
// engine's read and write paths.
struct Crc16Tables {
  uint16_t t[8][256];
  constexpr Crc16Tables() : t{} {
    for (int i = 0; i < 256; ++i) {
      uint16_t crc = static_cast<uint16_t>(i << 8);
      for (int j = 0; j < 8; ++j) {
        crc = static_cast<uint16_t>((crc & 0x8000) ? (crc << 1) ^ 0x1021
                                                   : (crc << 1));
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (int i = 0; i < 256; ++i) {
        t[k][i] = static_cast<uint16_t>((t[k - 1][i] << 8) ^
                                        t[0][t[k - 1][i] >> 8]);
      }
    }
  }
};

// Slicing-by-8 tables for the reflected Jones polynomial: t[0] is the
// classic byte-at-a-time table, and t[k][b] is the CRC of byte b followed
// by k zero bytes, so eight table lookups fold eight input bytes at once.
struct Crc64Tables {
  uint64_t t[8][256];
  constexpr Crc64Tables() : t{} {
    // Jones polynomial 0xad93d23594c935a9, bit-reflected implementation.
    constexpr uint64_t kPoly = 0x95ac9329ac4bc9b5ULL;  // reflected form
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : (crc >> 1);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (int i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Crc16Tables kCrc16Tables;
constexpr Crc64Tables kCrc64Tables;

}  // namespace

uint16_t Crc16(const char* data, size_t size) {
  const auto& t = kCrc16Tables.t;
  const auto* p = reinterpret_cast<const uint8_t*>(data);
  uint16_t crc = 0;
  for (; size >= 8; p += 8, size -= 8) {
    // The register is the first two bytes' prefix: fold it into them.
    crc = t[7][(crc >> 8) ^ p[0]] ^ t[6][(crc & 0xff) ^ p[1]] ^ t[5][p[2]] ^
          t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; ++p, --size) {
    crc = static_cast<uint16_t>((crc << 8) ^ t[0][(crc >> 8) ^ *p]);
  }
  return crc;
}

uint64_t Crc64(uint64_t crc, const char* data, size_t size) {
  // The 8-byte fold XORs a native load into the low-order (first-consumed)
  // end of the reflected CRC, which is only right on little-endian hosts.
  static_assert(std::endian::native == std::endian::little,
                "Crc64 slicing-by-8 assumes little-endian loads");
  const auto& t = kCrc64Tables.t;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc ^= word;
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^
          t[5][(crc >> 16) & 0xff] ^ t[4][(crc >> 24) & 0xff] ^
          t[3][(crc >> 32) & 0xff] ^ t[2][(crc >> 40) & 0xff] ^
          t[1][(crc >> 48) & 0xff] ^ t[0][crc >> 56];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*data)) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

uint16_t KeyHashSlot(Slice key) {
  // Find "{...}" hash tag per the Redis Cluster specification.
  size_t open = key.size();
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == '{') {
      open = i;
      break;
    }
  }
  if (open < key.size()) {
    for (size_t j = open + 1; j < key.size(); ++j) {
      if (key[j] == '}') {
        if (j > open + 1) {
          return Crc16(key.data() + open + 1, j - open - 1) %
                 static_cast<uint16_t>(kNumSlots);
        }
        break;  // empty tag: hash the whole key
      }
    }
  }
  return Crc16(key.data(), key.size()) % static_cast<uint16_t>(kNumSlots);
}

}  // namespace memdb
