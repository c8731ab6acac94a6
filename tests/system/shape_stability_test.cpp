// Shape-stability sweeps: the figure-level shapes the paper reports must
// hold across seeds, not just for the bench's seed. These are the
// regression guards for model recalibrations — plus the fleet-refactor
// guard: the two-station paper_fleet_config() preset must keep exporting
// the exact bytes the hand-wired pre-fleet assembly produced.
#include <gtest/gtest.h>

#include <string>

#include "env/environment.h"
#include "obs/export.h"
#include "sim/trace_export.h"
#include "station/fleet.h"
#include "util/crc32.h"

namespace gw {
namespace {

// Renders the full observable surface of a two-station run — per-station
// metrics + journals, fault sinks, and the Fig 5/6 trace series — as one
// deterministic JSON string.
std::string render_two_station_export(station::Fleet& fleet,
                                      std::uint64_t seed) {
  obs::BenchReport report;
  report.bench = "shape_probe";
  report.meta = {{"seed", std::to_string(seed)}};
  report.sections = {
      {"base", &fleet.station(0).metrics(), &fleet.station(0).journal()},
      {"reference", &fleet.station(1).metrics(),
       &fleet.station(1).journal()},
      {"fault", &fleet.fault_metrics(), &fleet.fault_journal()}};
  report.series = sim::to_obs_series(
      fleet.trace(), {"base.voltage", "base.state", "base.soc",
                      "reference.voltage", "reference.state",
                      "probe21.conductivity", "probe24.conductivity"});
  return obs::to_json(report);
}

// CRC-32 of render_two_station_export() for the paper preset at seed
// 20081019 with the fault spec below, 20 days: the bytes the two-station
// preset produced before it became a plain FleetConfig. Re-pin only for a
// deliberate behaviour change (the failure message prints the new value).
constexpr std::uint32_t kPaperPresetExportCrc = 0x6510d9deu;

TEST(FleetRefactor, PaperPresetExportIsPinned) {
  // The refactor contract: the paper deployment is *nothing but* a
  // FleetConfig preset, and its trace/metrics/journal exports did not move
  // a byte when the preset stopped having a class of its own — legacy
  // probe naming included.
  station::FleetConfig config = station::paper_fleet_config();
  config.seed = 20081019;
  config.fault_spec =
      "gprs_outage start=5d duration=2d severity=1.0\n"
      "server_down start=9d duration=12h\n";
  station::Fleet fleet{config};
  fleet.run_days(20.0);
  const std::string exported = render_two_station_export(fleet, config.seed);
  EXPECT_EQ(exported.find("{\"schema\":\"glacsweb.bench.v1\""), 0u);
  const std::uint32_t crc = util::crc32(exported);
  EXPECT_EQ(crc, kPaperPresetExportCrc)
      << "export of " << exported.size() << " bytes; crc 0x" << std::hex
      << crc;
  // The legacy namespace survived: bare probe ids, no station prefix.
  EXPECT_TRUE(fleet.trace().has_series("probe21.conductivity"));
  EXPECT_FALSE(fleet.trace().has_series("base/probe21.conductivity"));
}

class ShapeSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapeSeeds, MeltOnsetLandsInSpring) {
  // Fig 6's defining feature: basal melt arrives at the end of winter.
  env::Environment environment{GetParam()};
  sim::SimTime onset{0};
  for (int day = 0; day < 365; ++day) {
    const auto t = sim::at_midnight(2009, 1, 1) + sim::days(day);
    const double w =
        environment.melt().water_index(t, environment.temperature());
    if (w > 0.3) {
      onset = t;
      break;
    }
  }
  ASSERT_NE(onset.millis_since_epoch(), 0) << "no onset all year";
  const auto dt = sim::to_datetime(onset);
  EXPECT_GE(dt.month, 3) << "onset in deep winter";
  EXPECT_LE(dt.month, 6) << "onset after midsummer";
}

TEST_P(ShapeSeeds, WinterConductivityFlatAndLow) {
  env::Environment environment{GetParam()};
  double max_feb = 0.0;
  for (int day = 0; day < 28; ++day) {
    const auto t = sim::at_midnight(2009, 2, 1) + sim::days(day);
    max_feb = std::max(
        max_feb, environment.melt()
                     .conductivity(t, environment.temperature(), 0.8, 13.5)
                     .value());
  }
  EXPECT_LT(max_feb, 4.0);  // Fig 6 winter band
}

TEST_P(ShapeSeeds, SummerProbeLossInPaperBand) {
  env::Environment environment{GetParam()};
  // Walk to late July.
  (void)environment.melt().water_index(sim::at_midnight(2009, 2, 1),
                                       environment.temperature());
  const double loss = environment.melt().probe_link_loss(
      sim::at_midnight(2009, 7, 25), environment.temperature());
  EXPECT_GT(loss, 0.08);
  EXPECT_LE(loss, 0.14);  // §V's ~13 %
}

TEST_P(ShapeSeeds, ClearSkySolarPeaksAtNoon) {
  env::EnvironmentConfig config;
  config.solar.cloud_stddev = 0.0;
  env::Environment environment{config, GetParam()};
  const auto day = sim::at_midnight(2009, 6, 21);
  double best = -1.0;
  int best_hour = -1;
  for (int hour = 0; hour < 24; ++hour) {
    const double w =
        environment.solar().irradiance(day + sim::hours(hour)).value();
    if (w > best) {
      best = w;
      best_hour = hour;
    }
  }
  EXPECT_EQ(best_hour, 12);
}

TEST_P(ShapeSeeds, WinterSnowBuriesPanelBeforeTurbine) {
  env::Environment environment{GetParam()};
  auto& snow = environment.snow();
  auto& temperature = environment.temperature();
  sim::SimTime panel_dark{0};
  sim::SimTime turbine_dead{0};
  for (int day = 0; day < 365; ++day) {
    const auto t = sim::at_midnight(2008, 10, 1) + sim::days(day);
    (void)snow.depth(t, temperature);
    if (panel_dark.millis_since_epoch() == 0 &&
        snow.panel_occlusion(t, temperature) >= 1.0) {
      panel_dark = t;
    }
    if (turbine_dead.millis_since_epoch() == 0 &&
        snow.turbine_buried(t, temperature)) {
      turbine_dead = t;
    }
  }
  // The shallower panel goes first (§II's burial narrative).
  if (turbine_dead.millis_since_epoch() != 0) {
    ASSERT_NE(panel_dark.millis_since_epoch(), 0);
    EXPECT_LE(panel_dark, turbine_dead);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeSeeds,
                         ::testing::Values(1u, 17u, 42u, 777u, 31337u,
                                           2008u));

}  // namespace
}  // namespace gw
