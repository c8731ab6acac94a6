// Air and enclosure temperature.
//
// Temperature matters twice: lead-acid capacity derates in the cold, and
// the Gumsense board reports internal temperature as one of its telemetry
// streams (§II). Seasonal sinusoid + diurnal swing + persistent noise.
#pragma once

#include "env/instant_memo.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::env {

// Calibrated to the paper's phenology: afternoon maxima first cross 0°C in
// early April (Fig 6's melt onset reaching the bed by late April), deep
// winter stays well below freezing, and July afternoons reach ~+13°C.
struct TemperatureConfig {
  double annual_mean_c = -1.0;     // glacier-margin annual mean
  double seasonal_amplitude_c = 10.0;
  double diurnal_amplitude_c = 4.0;
  double noise_stddev_c = 2.0;
  double noise_persistence = 0.9;
};

class TemperatureModel {
 public:
  TemperatureModel(TemperatureConfig config, util::Rng rng);

  [[nodiscard]] util::Celsius air(sim::SimTime t);

  // Enclosure runs slightly warmer than ambient (electronics + insulation).
  [[nodiscard]] util::Celsius enclosure(sim::SimTime t) {
    return air(t) + util::Celsius{3.0};
  }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(day_);
    ar.value(noise_state_);
    if constexpr (!Archive::kIsSaver) memo_.clear();
  }

 private:
  TemperatureConfig config_;
  util::Rng rng_;
  std::int64_t day_ = -1;
  double noise_state_ = 0.0;
  // gwlint: allow(persist-coverage): exact per-instant memo, cleared on
  // load (env/instant_memo.h)
  InstantMemo<util::Celsius> memo_;
};

}  // namespace gw::env
