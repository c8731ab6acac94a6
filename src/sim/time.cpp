#include "sim/time.h"

#include <cstdio>

namespace gw::sim {
namespace {

constexpr std::int64_t kMsPerDay = 86'400'000;

// Inverse of days_from_civil (Howard Hinnant's civil_from_days).
void civil_from_days(std::int64_t z, int& year, int& month, int& day) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const std::int64_t doe = z - era * 146097;                      // [0, 146096]
  const std::int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;      // [0, 399]
  const std::int64_t y = yoe + era * 400;
  const std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const std::int64_t mp = (5 * doy + 2) / 153;                    // [0, 11]
  day = int(doy - (153 * mp + 2) / 5 + 1);
  month = int(mp < 10 ? mp + 3 : mp - 9);
  year = int(y + (month <= 2 ? 1 : 0));
}

}  // namespace

std::int64_t days_from_civil(int year, int month, int day) {
  year -= month <= 2;
  const std::int64_t era = (year >= 0 ? year : year - 399) / 400;
  const std::int64_t yoe = year - era * 400;                      // [0, 399]
  const std::int64_t doy =
      (153 * (month > 2 ? month - 3 : month + 9) + 2) / 5 + day - 1;
  const std::int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

DateTime to_datetime(SimTime t) {
  std::int64_t ms = t.millis_since_epoch();
  std::int64_t day_index = ms / kMsPerDay;
  std::int64_t in_day = ms % kMsPerDay;
  if (in_day < 0) {
    in_day += kMsPerDay;
    --day_index;
  }
  DateTime dt;
  civil_from_days(day_index, dt.year, dt.month, dt.day);
  const std::int64_t secs = in_day / 1000;
  dt.hour = int(secs / 3600);
  dt.minute = int((secs / 60) % 60);
  dt.second = int(secs % 60);
  return dt;
}

SimTime to_time(const DateTime& dt) {
  const std::int64_t day_index = days_from_civil(dt.year, dt.month, dt.day);
  const std::int64_t secs =
      std::int64_t(dt.hour) * 3600 + std::int64_t(dt.minute) * 60 + dt.second;
  return SimTime{day_index * kMsPerDay + secs * 1000};
}

SimTime at_midnight(int year, int month, int day) {
  return to_time(DateTime{year, month, day, 0, 0, 0});
}

int day_of_year(SimTime t) {
  const std::int64_t this_day =
      start_of_day(t).millis_since_epoch() / kMsPerDay;
  int year = 0;
  int month = 0;
  int day = 0;
  civil_from_days(this_day, year, month, day);
  return int(this_day - days_from_civil(year, 1, 1)) + 1;
}

Duration time_of_day(SimTime t) {
  std::int64_t in_day = t.millis_since_epoch() % kMsPerDay;
  if (in_day < 0) in_day += kMsPerDay;
  return Duration{in_day};
}

SimTime start_of_day(SimTime t) { return t - time_of_day(t); }

std::string format_iso(SimTime t) {
  const DateTime dt = to_datetime(t);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02d %02d:%02d:%02d",
                dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second);
  return buffer;
}

}  // namespace gw::sim
