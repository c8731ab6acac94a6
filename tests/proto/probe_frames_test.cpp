#include "proto/probe_frames.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/sealed_pin.h"

namespace gw::proto {
namespace {

ProbeReading sample_reading() {
  ProbeReading reading;
  reading.probe_id = 24;
  reading.seq = 1234567;
  reading.sampled_ms = 1233100800000;  // 2009-01-28
  reading.conductivity_us = 7.125;
  reading.pressure_kpa = 812.5;
  reading.tilt_deg = -1.75;
  reading.temperature_c = -0.41;
  return reading;
}

TEST(ProbeFrames, ReadingPayloadRoundTrip) {
  const auto reading = sample_reading();
  const auto payload = serialize_reading(reading);
  EXPECT_EQ(payload.size(), std::size_t(kReadingPayload.count()));
  const auto parsed = parse_reading(payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().probe_id, reading.probe_id);
  EXPECT_EQ(parsed.value().seq, reading.seq);
  EXPECT_EQ(parsed.value().sampled_ms, reading.sampled_ms);
  EXPECT_DOUBLE_EQ(parsed.value().conductivity_us, reading.conductivity_us);
  EXPECT_DOUBLE_EQ(parsed.value().pressure_kpa, reading.pressure_kpa);
  EXPECT_DOUBLE_EQ(parsed.value().tilt_deg, reading.tilt_deg);
  EXPECT_DOUBLE_EQ(parsed.value().temperature_c, reading.temperature_c);
}

TEST(ProbeFrames, FrameRoundTrip) {
  const auto wire = encode_reading_frame(sample_reading());
  const auto decoded = decode_frame(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FrameType::kReadingData);
  EXPECT_EQ(decoded.value().probe_id, 24);
  EXPECT_EQ(decoded.value().seq, 1234567u);
  const auto parsed = parse_reading(decoded.value().payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().conductivity_us, 7.125);
}

TEST(ProbeFrames, WireSizesMatchProtocolConstants) {
  // The §V protocol arithmetic (bulk_transfer) uses these constants; the
  // codec is their source of truth.
  EXPECT_EQ(encode_reading_frame(sample_reading()).size(),
            std::size_t(kReadingWireSize.count()));
  EXPECT_EQ(encode_resend_request(24, 99).size(),
            std::size_t(kRequestWireSize.count()));
  EXPECT_EQ(encode_ack(24, 99).size(), std::size_t(kAckWireSize.count()));
  EXPECT_EQ(kHeaderBytes + kTrailerBytes,
            std::size_t(kFrameOverhead.count()));
}

TEST(ProbeFrames, CrcDetectsCorruption) {
  auto wire = encode_reading_frame(sample_reading());
  for (const std::size_t index :
       {std::size_t{0}, std::size_t{5}, std::size_t{20}, wire.size() - 1}) {
    auto corrupted = wire;
    corrupted[index] ^= 0x10;
    EXPECT_FALSE(decode_frame(corrupted).ok()) << "byte " << index;
  }
}

TEST(ProbeFrames, TruncationRejected) {
  const auto wire = encode_reading_frame(sample_reading());
  EXPECT_FALSE(
      decode_frame(std::span<const std::uint8_t>(wire.data(), 10)).ok());
  EXPECT_FALSE(
      decode_frame(std::span<const std::uint8_t>(wire.data(), wire.size() - 1))
          .ok());
  EXPECT_FALSE(decode_frame({}).ok());
}

TEST(ProbeFrames, WrongPayloadSizeRejected) {
  std::vector<std::uint8_t> short_payload(10, 0);
  EXPECT_FALSE(parse_reading(short_payload).ok());
}

TEST(ProbeFrames, RequestAndAckDecode) {
  const auto request = decode_frame(encode_resend_request(21, 404));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request.value().type, FrameType::kResendRequest);
  EXPECT_EQ(request.value().seq, 404u);

  const auto ack = decode_frame(encode_ack(21, 7));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().type, FrameType::kAck);
  EXPECT_EQ(ack.value().probe_id, 21);
}

TEST(ProbeFrames, NegativeAndExtremeValuesSurvive) {
  ProbeReading reading;
  reading.probe_id = 65535;
  reading.seq = 0xffffffffu;
  reading.sampled_ms = -1;
  reading.conductivity_us = 0.0;
  reading.pressure_kpa = 1e9;
  reading.tilt_deg = -180.0;
  reading.temperature_c = -273.15;
  const auto parsed = parse_reading(serialize_reading(reading));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().seq, 0xffffffffu);
  EXPECT_EQ(parsed.value().sampled_ms, -1);
  EXPECT_DOUBLE_EQ(parsed.value().pressure_kpa, 1e9);
}

// Golden wire bytes, one frame of each FrameType: a codec change that moves
// a byte (order, width, padding, field order) fails here even where it
// would still round-trip, because both directions moved together.
TEST(ProbeFrames, WireBytesArePinned) {
  using test::matches_sealed_pin;
  const auto payload = serialize_reading(sample_reading());
  EXPECT_EQ(util::crc32(payload), 0x95F8536Au);
  EXPECT_EQ(payload.size(), 48u);
  EXPECT_TRUE(matches_sealed_pin(encode_reading_frame(sample_reading()),
                                 {0xAD596E5F, 64}));
  EXPECT_TRUE(
      matches_sealed_pin(encode_resend_request(21, 404), {0x62A86E7F, 24}));
  EXPECT_TRUE(matches_sealed_pin(encode_ack(21, 7), {0x53739B83, 20}));
  EXPECT_TRUE(matches_sealed_pin(encode_query_pending(24), {0x0ACA7A35, 16}));

  // 57 sequences split into a full 56-sequence frame and a 1-sequence one.
  std::vector<std::uint32_t> seqs;
  for (std::uint32_t i = 0; i < 57; ++i) seqs.push_back(1000 + 3 * i);
  const auto confirm = encode_confirm(24, seqs);
  ASSERT_EQ(confirm.size(), 2u);
  EXPECT_TRUE(matches_sealed_pin(confirm[0], {0x04FF12A0, 242}));
  EXPECT_TRUE(matches_sealed_pin(confirm[1], {0x1E87627E, 22}));
  const auto empty = encode_confirm(24, {});
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(matches_sealed_pin(empty[0], {0xD0939A1C, 18}));
}

}  // namespace
}  // namespace gw::proto
