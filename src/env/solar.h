// Solar irradiance at the deployment site.
//
// Vatnajökull sits at ~64°N: near-total darkness around the winter solstice
// and ~20 h days in June. The model computes solar elevation from the
// standard declination/hour-angle formulas, converts to clear-sky
// irradiance, and multiplies by a slowly-varying stochastic cloud factor.
// This is what makes winter the hard season the paper designs for: the
// solar panel contributes essentially nothing from November to February.
#pragma once

#include "env/instant_memo.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/units.h"

namespace gw::env {

struct SolarConfig {
  double latitude_deg = 64.3;   // Vatnajökull ice cap
  double clear_sky_peak = 990;  // W/m^2 at solar elevation 90 deg
  double cloud_mean = 0.55;     // long-run mean transmission factor
  double cloud_stddev = 0.18;
  double cloud_persistence = 0.85;  // AR(1) day-to-day correlation
};

class SolarModel {
 public:
  SolarModel(SolarConfig config, util::Rng rng);

  // Sine of solar elevation (may be negative: sun below horizon).
  [[nodiscard]] double sin_elevation(sim::SimTime t) const;

  // Irradiance on a horizontal surface, including cloud attenuation.
  [[nodiscard]] util::WattsPerSquareMetre irradiance(sim::SimTime t);

  // Daylight length in hours for the day containing t (cloud-independent).
  [[nodiscard]] double daylight_hours(sim::SimTime t) const;

  [[nodiscard]] const SolarConfig& config() const { return config_; }

  // Snapshot support (docs/SNAPSHOT.md): the AR(1) cloud state and the RNG
  // stream are dynamics; the per-day geometry memo is deliberately not
  // saved — it is recomputed bit-identically on first use — and the
  // per-instant irradiance memo is cleared on load.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(cloud_day_);
    ar.value(cloud_state_);
    if constexpr (!Archive::kIsSaver) memo_.clear();
  }

 private:
  // Memoized per-day geometry: declination and daylight length depend only
  // on (latitude, day of year), yet the charger integrates irradiance every
  // simulated minute — recomputing sin/cos/tan of the declination per call
  // was pure waste. A single-entry cache fits the access pattern (simulated
  // time moves through one day at a time) and costs nothing to construct —
  // trials that never read the sun pay nothing. The cached factors are
  // computed with exactly the expressions the per-call formulas used, so
  // results are bit-identical.
  struct DayGeometry {
    double sin_decl = 0.0;
    double cos_decl = 0.0;
    double daylight_hours = 0.0;
  };

  const DayGeometry& geometry_for(int doy) const;
  double cloud_factor(sim::SimTime t);

  SolarConfig config_;
  util::Rng rng_;
  // Derived from config_.latitude at construction; pure caches.
  double sin_lat_ = 0.0;  // gwlint: allow(persist-coverage): derived cache
  double cos_lat_ = 0.0;  // gwlint: allow(persist-coverage): derived cache
  double lat_rad_ = 0.0;  // gwlint: allow(persist-coverage): derived cache
  mutable int cached_doy_ = -1;
  mutable DayGeometry cached_;
  // AR(1) cloud state, refreshed once per simulated day.
  std::int64_t cloud_day_ = -1;
  double cloud_state_ = 0.0;
  // gwlint: allow(persist-coverage): exact per-instant memo, cleared on
  // load (env/instant_memo.h)
  InstantMemo<util::WattsPerSquareMetre> memo_;
};

}  // namespace gw::env
