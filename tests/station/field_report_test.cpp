#include "station/field_report.h"

#include <gtest/gtest.h>

namespace gw::station {
namespace {

TEST(FieldReport, RendersAllSections) {
  FleetConfig config = paper_fleet_config();
  config.seed = 3;
  config.trace_enabled = false;
  Fleet fleet{config};
  fleet.run_days(10.0);

  const std::string report = FieldReport{fleet}.render();
  for (const auto* needle :
       {"GLACSWEB FIELD REPORT", "[base station]", "[reference station]",
        "[subglacial probes]", "[southampton]", "power state", "dGPS:",
        "GPRS:", "energy:", "probe 20", "probe 26", "/7 alive",
        "received"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(FieldReport, ShowsBrownOutMarker) {
  FleetConfig config = paper_fleet_config();
  config.seed = 3;
  config.trace_enabled = false;
  config.stations[0].station.power.battery.capacity = util::AmpHours{1.0};
  config.stations[0].station.power.battery.initial_soc = 0.02;
  config.start = sim::DateTime{2009, 1, 1, 0, 0, 0};  // winter: no recharge
  Fleet fleet{config};
  fleet.run_days(8.0);
  if (fleet.station(0).power().browned_out()) {
    const std::string report = FieldReport{fleet}.render();
    EXPECT_NE(report.find("** BROWNED OUT **"), std::string::npos);
  }
}

TEST(FieldReport, CountsMatchLedgers) {
  FleetConfig config = paper_fleet_config();
  config.seed = 4;
  config.trace_enabled = false;
  config.stations[0].station.gprs.registration_success = 1.0;
  config.stations[0].station.gprs.drop_per_minute = 0.0;
  Fleet fleet{config};
  fleet.run_days(5.0);
  const std::string report = FieldReport{fleet}.render();
  // The per-probe delivered counts printed must sum to the base station's
  // ledger figure.
  std::size_t delivered_sum = 0;
  for (const auto& probe : fleet.probes(0)) {
    delivered_sum += probe->store().delivered_total();
  }
  EXPECT_EQ(delivered_sum,
            fleet.station(0).stats().probe_readings_delivered);
  EXPECT_NE(report.find(std::to_string(delivered_sum)), std::string::npos);
}

TEST(FieldReport, ServerBytesSumEveryStationByName) {
  // The MiB line sums the server's receipts over the fleet's own station
  // names, so a preset with renamed stations still reports what arrived.
  FleetConfig config = paper_fleet_config();
  config.seed = 4;
  config.trace_enabled = false;
  for (auto& spec : config.stations) {
    spec.station.gprs.registration_success = 1.0;
    spec.station.gprs.drop_per_minute = 0.0;
  }
  config.stations[0].station.name = "glacier";
  config.stations[1].station.name = "cafe";
  Fleet fleet{config};
  fleet.run_days(5.0);
  const std::string report = FieldReport{fleet}.render();
  EXPECT_NE(report.find("[glacier station]"), std::string::npos);
  EXPECT_NE(report.find("[cafe station]"), std::string::npos);
  const double mib = fleet.server().bytes_from("glacier").mib() +
                     fleet.server().bytes_from("cafe").mib();
  ASSERT_GT(mib, 0.0);
  EXPECT_NE(report.find(" files (" + util::format_fixed(mib, 2) + " MiB)"),
            std::string::npos)
      << report;
}

TEST(FieldReport, RendersEveryStationAndItsProbes) {
  // Four stations, two of them serving two probes each.
  Fleet fleet{uniform_fleet_config(4, 7u)};
  fleet.run_days(2.0);
  const std::string report = FieldReport{fleet}.render();
  std::size_t last = 0;
  for (const auto* name : {"[s000 station]", "[s001 station]",
                           "[s002 station]", "[s003 station]"}) {
    const std::size_t at = report.find(name);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GT(at, last) << name << " out of spec order";
    last = at;
  }
  EXPECT_NE(report.find("/4 alive"), std::string::npos) << report;
}

}  // namespace
}  // namespace gw::station
