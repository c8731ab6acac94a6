// Wind speed model.
//
// Wind is the base station's main winter energy source in Norway and an
// unreliable one in Iceland, where heavy snow can bury the turbine and the
// paper notes the expected snow "would even stop that source from being
// useful". Daily mean speeds are Weibull-distributed with a seasonal scale
// (stormier winters); within a day an AR(1) gust process modulates the mean.
#pragma once

#include "env/instant_memo.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::env {

struct WindConfig {
  double weibull_shape = 2.0;
  double scale_mean = 6.5;       // m/s annual mean of the Weibull scale
  double scale_winter_boost = 2.5;  // added around mid-winter
  double gust_stddev = 0.25;     // relative intra-day modulation
  double gust_persistence = 0.7;
};

class WindModel {
 public:
  WindModel(WindConfig config, util::Rng rng);

  [[nodiscard]] util::MetresPerSecond speed(sim::SimTime t);

  [[nodiscard]] const WindConfig& config() const { return config_; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(day_);
    ar.value(hour_);
    ar.value(daily_mean_);
    ar.value(gust_state_);
    if constexpr (!Archive::kIsSaver) memo_.clear();
  }

 private:
  void refresh_day(sim::SimTime t);
  void refresh_hour(sim::SimTime t);

  WindConfig config_;
  util::Rng rng_;
  std::int64_t day_ = -1;
  std::int64_t hour_ = -1;
  double daily_mean_ = 0.0;
  double gust_state_ = 0.0;
  // gwlint: allow(persist-coverage): exact per-instant memo, cleared on
  // load (env/instant_memo.h)
  InstantMemo<util::MetresPerSecond> memo_;
};

}  // namespace gw::env
