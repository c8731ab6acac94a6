#include "util/byte_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/crc32.h"

namespace gw::util {
namespace {

TEST(ByteIo, WriterIsLittleEndian) {
  std::vector<std::uint8_t> out;
  put_u16(out, 0x0102);
  put_u32(out, 0x03040506);
  put_u64(out, 0x0708090a0b0c0d0e);
  const std::vector<std::uint8_t> expected{
      0x02, 0x01,                                      // u16
      0x06, 0x05, 0x04, 0x03,                          // u32
      0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07,  // u64
  };
  EXPECT_EQ(out, expected);
}

TEST(ByteIo, SignedAndFloatGoThroughTheirBits) {
  std::vector<std::uint8_t> out;
  put_i64(out, -2);
  put_f64(out, 1.0);  // IEEE-754: 0x3ff0000000000000
  const std::vector<std::uint8_t> expected{
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
  };
  EXPECT_EQ(out, expected);
}

TEST(ByteIo, ReaderRoundTripsEveryWidth) {
  std::vector<std::uint8_t> out{0xab};
  put_u16(out, 0xbeef);
  put_u32(out, 0xdeadbeef);
  put_u64(out, std::numeric_limits<std::uint64_t>::max() - 1);
  put_i64(out, std::numeric_limits<std::int64_t>::min());
  put_f64(out, -273.15);

  ByteReader in(out);
  EXPECT_EQ(in.take_u8(), 0xab);
  EXPECT_EQ(in.take_u16(), 0xbeef);
  EXPECT_EQ(in.take_u32(), 0xdeadbeefu);
  EXPECT_EQ(in.take_u64(), std::numeric_limits<std::uint64_t>::max() - 1);
  EXPECT_EQ(in.take_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(in.take_f64(), -273.15);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(in.pos(), out.size());
}

TEST(ByteIo, UnderrunIsEmptyAndConsumesNothing) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  ByteReader in(bytes);
  EXPECT_FALSE(in.take_u32().has_value());
  EXPECT_FALSE(in.take(4).has_value());
  EXPECT_FALSE(in.take(std::numeric_limits<std::uint64_t>::max()).has_value());
  EXPECT_EQ(in.pos(), 0u);
  EXPECT_EQ(in.take_u16(), 0x0201);
  EXPECT_FALSE(in.take_u16().has_value());
  EXPECT_EQ(in.remaining(), 1u);
  const auto rest = in.take(1);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ((*rest)[0], 3);
  ASSERT_TRUE(in.take(0).has_value());
  EXPECT_FALSE(in.take_u8().has_value());
}

TEST(ByteIo, TrailerSealsAndStrips) {
  std::vector<std::uint8_t> image{'G', 'S', 1};
  append_crc32_trailer(image);
  ASSERT_EQ(image.size(), 7u);
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(image).first(3));
  EXPECT_EQ(image[3], std::uint8_t(crc));
  EXPECT_EQ(image[6], std::uint8_t(crc >> 24));

  const auto body = strip_crc32_trailer(image);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->size(), 3u);
  EXPECT_EQ(body->data(), image.data());
}

TEST(ByteIo, TrailerRefusesDamageAndShortImages) {
  std::vector<std::uint8_t> image{1, 2, 3, 4, 5};
  append_crc32_trailer(image);
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto damaged = image;
    damaged[i] ^= 0x80;
    EXPECT_FALSE(strip_crc32_trailer(damaged).has_value()) << "byte " << i;
  }
  const std::vector<std::uint8_t> short_image{0, 0, 0};
  EXPECT_FALSE(strip_crc32_trailer(short_image).has_value());
  // An empty body seals to the CRC of nothing.
  std::vector<std::uint8_t> empty;
  append_crc32_trailer(empty);
  const auto body = strip_crc32_trailer(empty);
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(body->empty());
}

}  // namespace
}  // namespace gw::util
