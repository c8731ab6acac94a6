#include "env/wind.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace gw::env {

WindModel::WindModel(WindConfig config, util::Rng rng)
    : config_(config), rng_(rng) {}

void WindModel::refresh_day(sim::SimTime t) {
  const std::int64_t day = t.millis_since_epoch() / 86'400'000;
  if (day == day_) return;
  day_ = day;
  const int doy = sim::day_of_year(t);
  // Seasonal Weibull scale: peaks mid-January (doy ~15).
  const double seasonal =
      config_.scale_mean +
      config_.scale_winter_boost *
          std::cos(2.0 * std::numbers::pi * (doy - 15) / 365.0);
  daily_mean_ = rng_.weibull(config_.weibull_shape, std::max(0.5, seasonal));
}

void WindModel::refresh_hour(sim::SimTime t) {
  const std::int64_t hour = t.millis_since_epoch() / 3'600'000;
  if (hour == hour_) return;
  hour_ = hour;
  const double innovation =
      rng_.normal(0.0, config_.gust_stddev *
                           std::sqrt(1.0 - config_.gust_persistence *
                                               config_.gust_persistence));
  gust_state_ = config_.gust_persistence * gust_state_ + innovation;
}

util::MetresPerSecond WindModel::speed(sim::SimTime t) {
  if (const util::MetresPerSecond* memo = memo_.find(t)) return *memo;
  refresh_day(t);
  refresh_hour(t);
  const double v = daily_mean_ * std::max(0.0, 1.0 + gust_state_);
  return memo_.store(t, util::MetresPerSecond{v});
}

}  // namespace gw::env
