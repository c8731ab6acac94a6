// Environment facade: one object owning every weather/glacier model with
// independent RNG streams forked from a single seed. Stations and chargers
// take an Environment& so a whole deployment is reproducible from one seed.
#pragma once

#include "env/gps_sky.h"
#include "env/interference.h"
#include "env/melt.h"
#include "env/snow.h"
#include "env/solar.h"
#include "env/temperature.h"
#include "env/wind.h"
#include "util/rng.h"

namespace gw::env {

struct EnvironmentConfig {
  SolarConfig solar;
  WindConfig wind;
  TemperatureConfig temperature;
  SnowConfig snow;
  MeltConfig melt;
  InterferenceConfig interference;
  RadioSite radio_site = RadioSite::kGlacier;
  GpsSkyConfig gps_sky;
};

class Environment {
 public:
  Environment(EnvironmentConfig config, std::uint64_t seed)
      : rng_(seed),
        solar_(config.solar, rng_.fork("solar")),
        wind_(config.wind, rng_.fork("wind")),
        temperature_(config.temperature, rng_.fork("temperature")),
        snow_(config.snow, rng_.fork("snow")),
        melt_(config.melt, rng_.fork("melt")),
        interference_(config.interference, config.radio_site,
                      rng_.fork("interference")),
        gps_sky_(config.gps_sky, rng_.fork("gps_sky")) {}

  explicit Environment(std::uint64_t seed)
      : Environment(EnvironmentConfig{}, seed) {}

  [[nodiscard]] SolarModel& solar() { return solar_; }
  [[nodiscard]] WindModel& wind() { return wind_; }
  [[nodiscard]] TemperatureModel& temperature() { return temperature_; }
  [[nodiscard]] SnowModel& snow() { return snow_; }
  [[nodiscard]] MeltModel& melt() { return melt_; }
  [[nodiscard]] InterferenceModel& interference() { return interference_; }
  [[nodiscard]] GpsSky& gps_sky() { return gps_sky_; }

  // Snapshot support (docs/SNAPSHOT.md): every model's stochastic state,
  // in construction order. Configs are rebuilt with the world, not saved.
  template <class Archive>
  void persist(Archive& ar) {
    ar.value(rng_);
    ar.value(solar_);
    ar.value(wind_);
    ar.value(temperature_);
    ar.value(snow_);
    ar.value(melt_);
    ar.value(interference_);
    ar.value(gps_sky_);
  }

 private:
  util::Rng rng_;
  SolarModel solar_;
  WindModel wind_;
  TemperatureModel temperature_;
  SnowModel snow_;
  MeltModel melt_;
  InterferenceModel interference_;
  GpsSky gps_sky_;
};

}  // namespace gw::env
