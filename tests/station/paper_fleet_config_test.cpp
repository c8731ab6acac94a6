// The paper's 2008 two-station deployment, built as a Fleet from
// paper_fleet_config(): the preset's shape, and the structural behaviour
// every bench and example that starts from it relies on.
#include "station/fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

namespace gw::station {
namespace {

FleetConfig quick_config() {
  FleetConfig config = paper_fleet_config();
  auto& base = config.stations[0].station;
  auto& reference = config.stations[1].station;
  // Reliable comms for the structural assertions.
  base.gprs.registration_success = 1.0;
  base.gprs.drop_per_minute = 0.0;
  reference.gprs.registration_success = 1.0;
  reference.gprs.drop_per_minute = 0.0;
  base.power.battery.initial_soc = 1.0;
  reference.power.battery.initial_soc = 1.0;
  return config;
}

TEST(DeploymentTest, PresetIsThePaperPair) {
  const FleetConfig config = paper_fleet_config();
  ASSERT_EQ(config.stations.size(), 2u);
  const StationSpec& base = config.stations[0];
  const StationSpec& reference = config.stations[1];
  EXPECT_EQ(base.station.name, "base");
  EXPECT_EQ(base.station.role, StationRole::kBaseStation);
  EXPECT_EQ(base.chargers, (std::vector<ChargerKind>{ChargerKind::kSolar,
                                                     ChargerKind::kWind}));
  EXPECT_EQ(base.probe_count, 7);
  EXPECT_EQ(reference.station.name, "reference");
  EXPECT_EQ(reference.station.role, StationRole::kReferenceStation);
  EXPECT_EQ(reference.chargers, (std::vector<ChargerKind>{
                                    ChargerKind::kSolar, ChargerKind::kMains}));
  EXPECT_EQ(reference.probe_count, 0);
  EXPECT_EQ(base.sync_group, "dgps");
  EXPECT_EQ(reference.sync_group, "dgps");
  EXPECT_FALSE(config.station_scoped_probe_names);
  EXPECT_EQ(config.server_received_window, 0u);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_TRUE(config.trace_enabled);
  EXPECT_TRUE(config.fault_spec.empty());
}

TEST(DeploymentTest, BothStationsRunDaily) {
  Fleet fleet{quick_config()};
  fleet.run_days(7.0);
  EXPECT_GE(fleet.station(0).stats().runs_completed +
                fleet.station(0).stats().runs_aborted, 6);
  EXPECT_GE(fleet.station(1).stats().runs_completed, 6);
}

TEST(DeploymentTest, ServerReceivesBothStations) {
  Fleet fleet{quick_config()};
  fleet.run_days(5.0);
  EXPECT_GT(fleet.server().files_from("base"), 0);
  EXPECT_GT(fleet.server().files_from("reference"), 0);
  EXPECT_GT(fleet.server().bytes_from("base").count(), 0);
}

TEST(DeploymentTest, ProbesDeliverReadings) {
  Fleet fleet{quick_config()};
  fleet.run_days(7.0);
  EXPECT_GT(fleet.station(0).stats().probe_readings_delivered, 500u);
}

TEST(DeploymentTest, TraceSeriesPresent) {
  Fleet fleet{quick_config()};
  fleet.run_days(2.0);
  for (const auto* name :
       {"base.voltage", "base.state", "base.soc", "reference.voltage",
        "reference.state", "probe20.conductivity", "probe26.conductivity"}) {
    EXPECT_TRUE(fleet.trace().has_series(name)) << name;
  }
  // 30-minute sampling: ~96 points over two days.
  EXPECT_NEAR(double(fleet.trace().series("base.voltage").size()), 97.0,
              3.0);
}

TEST(DeploymentTest, VoltagesStayPhysical) {
  Fleet fleet{quick_config()};
  fleet.run_days(10.0);
  EXPECT_GT(fleet.trace().min_value("base.voltage"), 9.0);
  EXPECT_LE(fleet.trace().max_value("base.voltage"), 14.5);
}

TEST(DeploymentTest, StatesStayInSyncViaServer) {
  Fleet fleet{quick_config()};
  fleet.run_days(10.0);
  // After convergence both stations sit in the same state (min rule).
  EXPECT_EQ(fleet.station(0).current_state(),
            fleet.station(1).current_state());
}

TEST(DeploymentTest, SevenProbesDeployed) {
  Fleet fleet{quick_config()};
  EXPECT_EQ(fleet.probes(0).size(), 7u);
  EXPECT_EQ(fleet.probes_alive(), 7);
}

TEST(DeploymentTest, DeterministicFromSeed) {
  auto run_once = [](std::uint64_t seed) {
    FleetConfig config = quick_config();
    config.seed = seed;
    Fleet fleet{config};
    fleet.run_days(5.0);
    return std::tuple{
        fleet.station(0).stats().runs_completed,
        fleet.station(0).stats().probe_readings_delivered,
        fleet.server().bytes_from("base").count(),
        fleet.station(0).power().battery().soc()};
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace gw::station
