// The one fleet assembly (docs/FLEET.md, "One assembly"): Fleet and
// ShardedFleet must install identical hardware for a given spec, name the
// same trace series and roll up the same gauges, and both refuse a
// malformed fault plan at construction.
#include "station/fleet_assembly.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "station/fleet.h"
#include "station/sharded_fleet.h"

namespace gw::station {
namespace {

constexpr const char* kFaults =
    "gprs_outage   start=2d duration=1d severity=1.0\n"
    "cf_write_fail start=1d duration=4d severity=0.3\n";

constexpr const char* kMalformed = "gprs_outage start=banana";

FleetConfig faulted_fleet() {
  FleetConfig config = uniform_fleet_config(8, 20080601u);
  config.fault_spec = kFaults;
  return config;
}

ShardedFleetConfig sharded(FleetConfig fleet, std::size_t shards) {
  ShardedFleetConfig config;
  config.fleet = std::move(fleet);
  config.shards = shards;
  config.workers = 1;
  return config;
}

// What an assembly wired for one station, read back through the public API.
struct Wiring {
  std::string name;
  std::vector<std::string> components;
  // Which of the three charger kinds the power system books harvest for.
  std::vector<std::string> chargers;
  std::vector<int> probe_ids;
  // (base_us, gain_us, link_quality) per probe.
  std::vector<std::array<double, 3>> probe_configs;
  std::vector<std::string> probe_series;

  bool operator==(const Wiring&) const = default;
};

template <class AnyFleet>
std::vector<Wiring> wiring_of(AnyFleet& fleet) {
  std::vector<Wiring> all;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    Station& station = fleet.station(s);
    Wiring wiring;
    wiring.name = station.name();
    const power::PowerSystem& power = station.power();
    for (std::size_t c = 0; c < power.component_count(); ++c) {
      wiring.components.push_back(power.component(c).name());
    }
    for (const char* charger : {"solar", "wind", "mains"}) {
      try {
        (void)power.harvested_microjoules(charger);
        wiring.chargers.push_back(charger);
      } catch (const std::out_of_range&) {
      }
    }
    for (const auto& probe : fleet.probes(s)) {
      wiring.probe_ids.push_back(probe->id());
      wiring.probe_configs.push_back({probe->config().conductivity_base_us,
                                      probe->config().conductivity_gain_us,
                                      probe->config().link_quality_factor});
      wiring.probe_series.push_back(
          fleet.probe_series_name(station.name(), probe->id()));
    }
    all.push_back(std::move(wiring));
  }
  return all;
}

std::map<std::string, double> gauges_of(const obs::MetricsRegistry& metrics) {
  std::map<std::string, double> values;
  for (const auto& [key, gauge] : metrics.gauges()) {
    values[key.full_name()] = gauge.value();
  }
  return values;
}

TEST(FleetAssembly, SerialWiringFollowsTheSpec) {
  const FleetConfig config = faulted_fleet();
  Fleet fleet{config};
  const auto wiring = wiring_of(fleet);
  ASSERT_EQ(wiring.size(), config.stations.size());
  for (std::size_t s = 0; s < wiring.size(); ++s) {
    const StationSpec& spec = config.stations[s];
    SCOPED_TRACE(spec.station.name);
    EXPECT_EQ(wiring[s].name, spec.station.name);
    const bool base_role = (s % 2 == 0);
    EXPECT_EQ(wiring[s].chargers,
              (base_role ? std::vector<std::string>{"solar", "wind"}
                         : std::vector<std::string>{"solar", "mains"}));
    ASSERT_EQ(wiring[s].probe_ids.size(), std::size_t(spec.probe_count));
    for (int i = 0; i < spec.probe_count; ++i) {
      const auto& variant = assembly::probe_variant(i);
      EXPECT_EQ(wiring[s].probe_ids[i], 20 + i);
      EXPECT_EQ(wiring[s].probe_configs[i],
                (std::array<double, 3>{variant.base_us, variant.gain_us,
                                       variant.link_quality}));
      EXPECT_EQ(wiring[s].probe_series[i],
                spec.station.name + "/probe" + std::to_string(20 + i));
    }
  }
}

TEST(FleetAssembly, ShardedFleetWiresWhatFleetWires) {
  Fleet fleet{faulted_fleet()};
  const auto serial_wiring = wiring_of(fleet);
  const auto serial_groups = fleet.group_status();
  const auto serial_gauges = gauges_of(fleet.update_rollup());
  ASSERT_EQ(serial_groups.size(), 4u);
  ASSERT_EQ(serial_gauges.size(), 6u);

  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFleet sharded_fleet{sharded(faulted_fleet(), shards)};
    EXPECT_EQ(sharded_fleet.shard_count(), shards);
    EXPECT_EQ(wiring_of(sharded_fleet), serial_wiring);
    EXPECT_EQ(sharded_fleet.group_status(), serial_groups);
    EXPECT_EQ(gauges_of(sharded_fleet.update_rollup()), serial_gauges);
    EXPECT_EQ(sharded_fleet.rollup_journal().size(),
              fleet.rollup_journal().size());
  }
}

template <class Build>
void expect_fault_plan_error(Build build) {
  try {
    build();
    FAIL() << "a malformed fault_spec was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fault plan line 1"),
              std::string::npos)
        << error.what();
  }
}

TEST(FleetAssembly, MalformedFaultSpecThrowsFromEveryAssembly) {
  FleetConfig fleet_config = uniform_fleet_config(2, 7u);
  fleet_config.fault_spec = kMalformed;
  expect_fault_plan_error([&] { Fleet fleet{fleet_config}; });
  expect_fault_plan_error(
      [&] { ShardedFleet fleet{sharded(fleet_config, 1)}; });

  FleetConfig paper_config = paper_fleet_config();
  paper_config.fault_spec = kMalformed;
  expect_fault_plan_error([&] { Fleet fleet{paper_config}; });
}

}  // namespace
}  // namespace gw::station
