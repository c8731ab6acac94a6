// Test helper: a golden pin for a CRC-sealed binary image (probe frame,
// MSP schedule image).
//
// The CRC-32 of an image that ends in its own little-endian CRC-32 trailer
// is the constant residue 0x2144DF1C whatever the image, so a CRC of the
// whole image would pin nothing. The pin is the CRC-32 of the body in
// front of the trailer plus the total length; the residue check then
// proves the trailer is that CRC, in little-endian order.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "util/crc32.h"

namespace gw::test {

inline constexpr std::uint32_t kCrc32Residue = 0x2144DF1C;

struct SealedPin {
  std::uint32_t body_crc = 0;
  std::size_t size = 0;
};

[[nodiscard]] inline ::testing::AssertionResult matches_sealed_pin(
    std::span<const std::uint8_t> image, SealedPin pin) {
  if (image.size() != pin.size) {
    return ::testing::AssertionFailure()
           << "size " << image.size() << ", pinned " << pin.size;
  }
  const std::uint32_t body_crc = util::crc32(image.first(image.size() - 4));
  if (body_crc != pin.body_crc) {
    return ::testing::AssertionFailure()
           << std::hex << "body CRC-32 0x" << body_crc << ", pinned 0x"
           << pin.body_crc;
  }
  if (util::crc32(image) != kCrc32Residue) {
    return ::testing::AssertionFailure()
           << "trailer is not the body's little-endian CRC-32";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace gw::test
