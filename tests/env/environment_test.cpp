#include "env/environment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "snapshot/archive.h"

namespace gw::env {
namespace {

TEST(Environment, AllSubsystemsAccessible) {
  Environment environment{42};
  const auto noon = sim::at_midnight(2009, 6, 21) + sim::hours(12);
  EXPECT_GE(environment.solar().irradiance(noon).value(), 0.0);
  EXPECT_GE(environment.wind().speed(noon).value(), 0.0);
  (void)environment.temperature().air(noon);
  (void)environment.snow().depth(noon, environment.temperature());
  (void)environment.melt().water_index(noon, environment.temperature());
  EXPECT_GE(environment.interference().dropout_probability(noon), 0.0);
  EXPECT_GT(environment.gps_sky().visible(noon), 0);
}

TEST(Environment, SameSeedSameWorld) {
  Environment a{7};
  Environment b{7};
  for (int day = 0; day < 60; ++day) {
    const auto t = sim::at_midnight(2009, 3, 1) + sim::days(day) +
                   sim::hours(12);
    EXPECT_DOUBLE_EQ(a.solar().irradiance(t).value(),
                     b.solar().irradiance(t).value());
    EXPECT_DOUBLE_EQ(a.wind().speed(t).value(), b.wind().speed(t).value());
    EXPECT_DOUBLE_EQ(a.temperature().air(t).value(),
                     b.temperature().air(t).value());
    EXPECT_EQ(a.gps_sky().visible(t), b.gps_sky().visible(t));
  }
}

TEST(Environment, DifferentSeedsDifferentWeather) {
  Environment a{7};
  Environment b{8};
  int identical = 0;
  for (int day = 0; day < 30; ++day) {
    const auto t = sim::at_midnight(2009, 6, 1) + sim::days(day) +
                   sim::hours(12);
    if (a.solar().irradiance(t).value() == b.solar().irradiance(t).value()) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 5);
}

TEST(Environment, ConfigPlumbsThrough) {
  EnvironmentConfig config;
  config.radio_site = RadioSite::kLab;
  config.solar.cloud_stddev = 0.0;
  config.gps_sky.mean_visible = 12.0;
  Environment environment{config, 3};
  EXPECT_EQ(environment.interference().site(), RadioSite::kLab);
  EXPECT_NEAR(environment.gps_sky().config().mean_visible, 12.0, 1e-12);
}

// --- per-instant memo (env/instant_memo.h) ---------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint8_t> saved(Environment& environment) {
  snapshot::Saver ar;
  ar.value(environment);
  return ar.take();
}

// One minute of the Fleet access pattern: `stations` identical queries of
// the three memoised models per batch, with calls between the batches that
// move the temperature model to other instants — snow and melt read
// air(noon) / air(15:00) as they cross days, and an explicit read of the
// previous day's noon swaps the model's day (and draws) twice a minute.
// Returns the first value of every batch and of every interleaved call;
// repeats that disagree with their batch's first value count as mismatches.
std::vector<std::uint64_t> fleet_minute(Environment& env, sim::SimTime t,
                                        int stations, int& mismatches) {
  std::vector<std::uint64_t> seen;
  const auto batch = [&] {
    const std::uint64_t air = bits(env.temperature().air(t).value());
    const std::uint64_t sun = bits(env.solar().irradiance(t).value());
    const std::uint64_t wind = bits(env.wind().speed(t).value());
    for (int s = 1; s < stations; ++s) {
      mismatches += bits(env.temperature().air(t).value()) != air;
      mismatches += bits(env.solar().irradiance(t).value()) != sun;
      mismatches += bits(env.wind().speed(t).value()) != wind;
    }
    seen.insert(seen.end(), {air, sun, wind});
  };
  batch();
  seen.push_back(bits(env.snow().depth(t, env.temperature()).value()));
  seen.push_back(bits(env.melt().water_index(t, env.temperature())));
  batch();
  const sim::SimTime yesterday_noon = sim::start_of_day(t) - sim::hours(12);
  seen.push_back(bits(env.temperature().air(yesterday_noon).value()));
  batch();
  return seen;
}

TEST(Environment, InstantMemoIsExact) {
  Environment fleet{23};
  Environment twin{23};
  const sim::SimTime start = sim::at_midnight(2009, 3, 30);
  int mismatches = 0;
  int twin_mismatches = 0;
  for (int minute = 0; minute < 3 * 24 * 60; ++minute) {
    const sim::SimTime t = start + sim::minutes(minute);
    const auto queried = fleet_minute(fleet, t, 32, mismatches);
    const auto once = fleet_minute(twin, t, 1, twin_mismatches);
    ASSERT_EQ(queried, once) << sim::format_iso(t);
  }
  EXPECT_EQ(mismatches, 0);
  // Same draws in the same order: the saved stochastic state agrees too.
  EXPECT_EQ(saved(fleet), saved(twin));
}

TEST(Environment, SnapshotLoadClearsInstantMemo) {
  const sim::SimTime memoised =
      sim::at_midnight(2009, 6, 21) + sim::hours(12);
  const sim::SimTime later = memoised + sim::days(3) + sim::hours(2);

  Environment source{5};
  (void)source.temperature().air(later);
  (void)source.solar().irradiance(later);
  (void)source.wind().speed(later);
  const std::vector<std::uint8_t> bytes = saved(source);

  // The target memoises `memoised`, then loads a snapshot of another day.
  Environment target{5};
  const double stale_air = target.temperature().air(memoised).value();
  const double stale_sun = target.solar().irradiance(memoised).value();
  const double stale_wind = target.wind().speed(memoised).value();
  snapshot::Loader target_loader(bytes);
  target_loader.value(target);

  Environment fresh{5};
  snapshot::Loader fresh_loader(bytes);
  fresh_loader.value(fresh);

  const double air = target.temperature().air(memoised).value();
  const double sun = target.solar().irradiance(memoised).value();
  const double wind = target.wind().speed(memoised).value();
  EXPECT_EQ(bits(air), bits(fresh.temperature().air(memoised).value()));
  EXPECT_EQ(bits(sun), bits(fresh.solar().irradiance(memoised).value()));
  EXPECT_EQ(bits(wind), bits(fresh.wind().speed(memoised).value()));
  // The loaded state is another day's, so a stale memo would have shown.
  EXPECT_NE(bits(air), bits(stale_air));
  EXPECT_NE(bits(sun), bits(stale_sun));
  EXPECT_NE(bits(wind), bits(stale_wind));
  EXPECT_EQ(saved(target), saved(fresh));
}

}  // namespace
}  // namespace gw::env
