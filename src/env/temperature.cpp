#include "env/temperature.h"

#include <cmath>
#include <numbers>

namespace gw::env {

TemperatureModel::TemperatureModel(TemperatureConfig config, util::Rng rng)
    : config_(config), rng_(rng) {}

util::Celsius TemperatureModel::air(sim::SimTime t) {
  if (const util::Celsius* memo = memo_.find(t)) return *memo;
  const std::int64_t day = t.millis_since_epoch() / 86'400'000;
  if (day != day_) {
    day_ = day;
    const double innovation =
        rng_.normal(0.0, config_.noise_stddev_c *
                             std::sqrt(1.0 - config_.noise_persistence *
                                                 config_.noise_persistence));
    noise_state_ =
        config_.noise_persistence * noise_state_ + innovation;
  }
  const int doy = sim::day_of_year(t);
  // Warmest around late July (doy ~205).
  const double seasonal =
      config_.annual_mean_c +
      config_.seasonal_amplitude_c *
          std::cos(2.0 * std::numbers::pi * (doy - 205) / 365.0);
  const double hour = sim::time_of_day(t).to_hours();
  // Warmest mid-afternoon (~15:00).
  const double diurnal =
      config_.diurnal_amplitude_c *
      std::cos(2.0 * std::numbers::pi * (hour - 15.0) / 24.0);
  return memo_.store(t, util::Celsius{seasonal + diurnal + noise_state_});
}

}  // namespace gw::env
