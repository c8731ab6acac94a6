#include "core/schedule.h"

#include <gtest/gtest.h>

#include "support/sealed_pin.h"

namespace gw::core {
namespace {

TEST(DaySchedule, ForStateMatchesTable2) {
  const auto s3 = DaySchedule::for_state(PowerState::kState3);
  EXPECT_EQ(s3.gps_slots.size(), 12u);
  // 12 slots at 2-hour spacing — the Fig 5 dip rhythm.
  EXPECT_EQ(s3.gps_slots[0], sim::hours(2));
  EXPECT_EQ(s3.gps_slots[11], sim::hours(24));

  const auto s2 = DaySchedule::for_state(PowerState::kState2);
  ASSERT_EQ(s2.gps_slots.size(), 1u);
  EXPECT_EQ(s2.gps_slots[0], sim::hours(24));

  EXPECT_TRUE(DaySchedule::for_state(PowerState::kState1).gps_slots.empty());
  EXPECT_TRUE(DaySchedule::for_state(PowerState::kState0).gps_slots.empty());
}

TEST(DaySchedule, SerializeParseRoundTrip) {
  for (const auto state : {PowerState::kState0, PowerState::kState1,
                           PowerState::kState2, PowerState::kState3}) {
    const auto original = DaySchedule::for_state(state, sim::hours(12));
    const auto image = original.serialize();
    const auto parsed = DaySchedule::parse(image);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value(), original);
  }
}

TEST(DaySchedule, CustomWakeTimeSurvivesRoundTrip) {
  const auto original =
      DaySchedule::for_state(PowerState::kState2, sim::hours(9.5));
  const auto parsed = DaySchedule::parse(original.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().wake_time, sim::minutes(570));
}

TEST(DaySchedule, CorruptedImageRejected) {
  auto image = DaySchedule::for_state(PowerState::kState3).serialize();
  image[5] ^= 0x01;
  EXPECT_FALSE(DaySchedule::parse(image).ok());
}

TEST(DaySchedule, TruncatedImageRejected) {
  const auto image = DaySchedule::for_state(PowerState::kState3).serialize();
  const std::span<const std::uint8_t> truncated(image.data(),
                                                image.size() - 5);
  EXPECT_FALSE(DaySchedule::parse(truncated).ok());
  EXPECT_FALSE(
      DaySchedule::parse(std::span<const std::uint8_t>{}).ok());
}

TEST(DaySchedule, BadMagicRejected) {
  auto image = DaySchedule::for_state(PowerState::kState2).serialize();
  // Flip the magic AND refresh the CRC, isolating the magic check.
  image[0] = 'X';
  image.resize(image.size() - 4);
  util::append_crc32_trailer(image);
  const auto parsed = DaySchedule::parse(image);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("magic"), std::string::npos);
}

TEST(DaySchedule, ImageIsCompact) {
  // It must fit comfortably in MSP430 RAM alongside the sample buffer.
  EXPECT_LE(DaySchedule::for_state(PowerState::kState3).serialize().size(),
            40u);
}

// Golden MSP image bytes per power state (a byte that moves fails here even
// where it would still round-trip). States 0 and 1 both have no dGPS
// slots, so their images are the same bytes.
TEST(DaySchedule, ImageBytesArePinned) {
  using test::matches_sealed_pin;
  EXPECT_TRUE(matches_sealed_pin(
      DaySchedule::for_state(PowerState::kState0).serialize(),
      {0xAA5F0DBA, 12}));
  EXPECT_TRUE(matches_sealed_pin(
      DaySchedule::for_state(PowerState::kState1).serialize(),
      {0xAA5F0DBA, 12}));
  EXPECT_TRUE(matches_sealed_pin(
      DaySchedule::for_state(PowerState::kState2).serialize(),
      {0xFEEDA07E, 14}));
  EXPECT_TRUE(matches_sealed_pin(
      DaySchedule::for_state(PowerState::kState3).serialize(),
      {0x407BD653, 36}));
  EXPECT_TRUE(matches_sealed_pin(
      DaySchedule::for_state(PowerState::kState2, sim::hours(9.5))
          .serialize(),
      {0x593D5927, 14}));
}

}  // namespace
}  // namespace gw::core
