// CRC32C: known answers from RFC 3720 (iSCSI) Appendix B.4, seed chaining,
// and every short length at every word alignment against a bytewise
// reference — the slicing-by-8 loop must produce exactly the values the
// page trailers and WAL records on disk were stamped with.
#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ruidx {
namespace util {
namespace {

/// One table lookup per byte: the textbook reflected CRC32C.
uint32_t ReferenceCrc32c(const uint8_t* data, size_t len, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::array<uint8_t, 32> zeros{};
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::array<uint8_t, 32> ones;
  ones.fill(0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::array<uint8_t, 32> ascending;
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, SeedChainsPieces) {
  std::vector<uint8_t> buf(300);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split : {0, 1, 7, 8, 9, 64, 150, 299, 300}) {
    uint32_t a = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, a), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, EveryShortLengthAtEveryAlignmentMatchesReference) {
  std::vector<uint8_t> buf(64 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + offset;
      EXPECT_EQ(Crc32c(p, len), ReferenceCrc32c(p, len))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(Crc32c(p, len, 0x12345678u),
                ReferenceCrc32c(p, len, 0x12345678u))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace util
}  // namespace ruidx
