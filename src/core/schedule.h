// The MSP430's RAM-resident day schedule, as a first-class type.
//
// §IV: "the schedule for the microprocessor is stored in RAM so will need
// to be re-written" after exhaustion. This is that object: the daily comms
// window, the dGPS reading slots implied by the power state (Table 2), and
// the sensor sampling cadence — serialisable to the compact image the
// Gumstix writes into the microcontroller, and parseable back with CRC
// protection (a corrupted image must be detected, not executed).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/power_policy.h"
#include "sim/time.h"
#include "util/byte_io.h"
#include "util/result.h"

namespace gw::core {

struct DaySchedule {
  sim::Duration wake_time = sim::hours(12);      // daily window (§I)
  sim::Duration sample_interval = sim::minutes(30);
  // Offsets from the wake at which the MSP powers the dGPS (Table 2's
  // 12-per-day state gives the Fig 5 two-hour rhythm).
  std::vector<sim::Duration> gps_slots;

  // The schedule a given power state implies.
  [[nodiscard]] static DaySchedule for_state(
      PowerState state, sim::Duration wake_time = sim::hours(12)) {
    DaySchedule schedule;
    schedule.wake_time = wake_time;
    const int per_day = PowerPolicy::actions_for(state).gps_readings_per_day;
    for (int k = 1; k <= per_day; ++k) {
      schedule.gps_slots.push_back(sim::hours(24.0 / per_day) * k);
    }
    return schedule;
  }

  friend bool operator==(const DaySchedule&, const DaySchedule&) = default;

  // --- MSP RAM image ------------------------------------------------------
  //
  // [ 'G' 'S' version=1 ] [wake_min u16] [sample_min u16] [n u8]
  // [slot_min u16] * n  [crc32 u32 over everything before it]
  // All little-endian; minutes resolution matches the MSP timer grid.

  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    std::vector<std::uint8_t> image{'G', 'S', 1};
    util::put_u16(image, std::uint16_t(wake_time.to_minutes()));
    util::put_u16(image, std::uint16_t(sample_interval.to_minutes()));
    image.push_back(std::uint8_t(gps_slots.size()));
    for (const auto& slot : gps_slots) {
      util::put_u16(image, std::uint16_t(slot.to_minutes()));
    }
    util::append_crc32_trailer(image);
    return image;
  }

  [[nodiscard]] static util::Result<DaySchedule> parse(
      std::span<const std::uint8_t> image) {
    if (image.size() < 12) return util::make_error("schedule: truncated");
    const auto body = util::strip_crc32_trailer(image);
    if (!body) return util::make_error("schedule: crc mismatch");
    // The size check above guarantees the 8-byte header is there.
    util::ByteReader in(*body);
    if (in.take_u8().value() != 'G' || in.take_u8().value() != 'S' ||
        in.take_u8().value() != 1) {
      return util::make_error("schedule: bad magic/version");
    }
    DaySchedule schedule;
    schedule.wake_time = sim::minutes(in.take_u16().value());
    schedule.sample_interval = sim::minutes(in.take_u16().value());
    const std::size_t n = in.take_u8().value();
    if (in.remaining() != 2 * n) {
      return util::make_error("schedule: slot count mismatch");
    }
    for (std::size_t k = 0; k < n; ++k) {
      schedule.gps_slots.push_back(sim::minutes(in.take_u16().value()));
    }
    return schedule;
  }
};

}  // namespace gw::core
