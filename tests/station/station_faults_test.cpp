// Fault-injection tests on the full station: the §VI failure modes wired
// end to end.
#include <gtest/gtest.h>

#include "station/station.h"

namespace gw::station {
namespace {

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{5};
  SouthamptonServer server;
  std::unique_ptr<Station> station;

  StationConfig reliable_base() {
    StationConfig config;
    config.name = "base";
    config.role = StationRole::kBaseStation;
    config.gprs.registration_success = 1.0;
    config.gprs.drop_per_minute = 0.0;
    config.power.battery.initial_soc = 1.0;
    config.initial_state = core::PowerState::kState3;
    return config;
  }

  Station& make(StationConfig config) {
    station = std::make_unique<Station>(simulation, environment, server,
                                        util::Rng{99}, std::move(config));
    power::MainsChargerConfig mains{.season_start_month = 1,
                                    .season_end_month = 12};
    station->add_charger(std::make_unique<power::MainsCharger>(mains));
    station->start();
    return *station;
  }

  void run_days(double days) {
    simulation.run_until(simulation.now() + sim::days(days));
  }
};

TEST(StationFaults, DeadSerialCableLeavesBacklogGrowing) {
  // §VI: the oversized-file risk "could only be caused by an intermittent
  // RS232 cable or dGPS unit". With the cable fully broken, no file ever
  // reaches the CF card and the receiver backlog grows day by day — while
  // the station burns its window retrying.
  Fixture f;
  auto config = f.reliable_base();
  config.serial.fault_probability = 1.0;
  auto& station = f.make(config);
  f.run_days(3.0);
  EXPECT_GT(station.serial().faults(), 300);  // the window spent retrying
  EXPECT_EQ(station.stats().gps_files_fetched, 0);
  EXPECT_GT(station.dgps().stored_files(), 30u);  // the growing backlog
}

TEST(StationFaults, FlakySerialCableStillDrainsViaRetries) {
  // A 95%-faulty cable is slow but not fatal: the file-by-file loop keeps
  // retrying inside the window and most files still get through.
  Fixture f;
  auto config = f.reliable_base();
  config.serial.fault_probability = 0.95;
  auto& station = f.make(config);
  f.run_days(3.0);
  EXPECT_GT(station.serial().faults(), 100);
  EXPECT_GT(station.stats().gps_files_fetched, 10);
}

TEST(StationFaults, HealthySerialKeepsReceiverDrained) {
  Fixture f;
  auto& station = f.make(f.reliable_base());
  f.run_days(3.0);
  EXPECT_EQ(station.serial().faults(), 0);
  // Only the readings taken after the last window remain on the receiver.
  EXPECT_LE(station.dgps().stored_files(), 8u);
  EXPECT_GE(station.stats().gps_files_fetched, 28);
}

TEST(StationFaults, VerboseProbeLoggingIsBudgeted) {
  // §VI: first contact after months produced >1 MB of log. The budget caps
  // what the daily upload carries.
  Fixture f;
  auto& station = f.make(f.reliable_base());
  ProbeNodeConfig probe_config;
  probe_config.probe_id = 21;
  probe_config.sample_interval = sim::minutes(2);  // a chatty probe
  probe_config.weibull_scale_days = 5000.0;
  ProbeNode probe{f.simulation, f.environment, util::Rng{21}, probe_config};
  station.add_probe(probe);
  f.run_days(2.0);
  // Hundreds of readings/day were fetched, but the per-component budget
  // suppressed most of the per-frame debug lines.
  EXPECT_GT(station.stats().probe_readings_delivered, 500u);
  EXPECT_GT(station.log_manager().total_suppressed(), 100u);
  // The logfile rides the upload; its size stays within budget territory.
  bool oversized_log = false;
  for (const auto& file : f.server.received()) {
    if (file.name.rfind("log_", 0) == 0 && file.size.kib() > 64.0) {
      oversized_log = true;
    }
  }
  EXPECT_FALSE(oversized_log);
}

TEST(StationFaults, ForcedCommsNeedsUrgentDataAndCharge) {
  // The §VII override stays quiet when data is routine, even when enabled.
  Fixture f;
  auto config = f.reliable_base();
  config.enable_data_priority = true;
  // Survival-mode firmware: always state 0.
  config.policy.state1_threshold = util::Volts{99.0};
  config.policy.state2_threshold = util::Volts{99.0};
  config.policy.state3_threshold = util::Volts{99.0};
  config.initial_state = core::PowerState::kState0;
  auto& station = f.make(config);
  ProbeNodeConfig probe_config;
  probe_config.probe_id = 21;
  probe_config.weibull_scale_days = 5000.0;
  ProbeNode probe{f.simulation, f.environment, util::Rng{21}, probe_config};
  station.add_probe(probe);
  f.run_days(5.0);  // September: no melt onset, data is routine
  EXPECT_EQ(station.stats().forced_comms_days, 0);
  EXPECT_EQ(station.gprs().sessions_attempted(), 0);
  EXPECT_GT(station.stats().probe_readings_delivered, 50u);  // probes still served
}

TEST(StationFaults, DeadI2cBusKeepsCurrentStateNoCrash) {
  // Fig 2's inter-processor link dies: no voltage samples reach the
  // Gumstix. The station must hold its current state and keep running, not
  // wedge or misclassify.
  Fixture f;
  auto config = f.reliable_base();
  config.bus.nak_probability = 1.0;
  config.initial_state = core::PowerState::kState2;
  auto& station = f.make(config);
  f.run_days(3.0);
  EXPECT_EQ(station.stats().runs_completed, 3);
  EXPECT_EQ(station.current_state(), core::PowerState::kState2);
  EXPECT_TRUE(station.daily_averages().empty());  // no samples ever arrived
  EXPECT_GT(station.bus().naks(), 5);
  EXPECT_GT(f.server.files_from("base"), 0);  // still shipping data
}

TEST(StationFaults, ScienceDataJumpsGpsBacklog) {
  // §VII-adjacent extension end to end: with a month of dGPS backlog in
  // the queue, today's probe readings still reach Southampton today.
  Fixture f;
  auto config = f.reliable_base();
  config.prioritize_science_data = true;
  auto& station = f.make(config);
  ProbeNodeConfig probe_config;
  probe_config.probe_id = 21;
  probe_config.weibull_scale_days = 5000.0;
  ProbeNode probe{f.simulation, f.environment, util::Rng{21}, probe_config};
  station.add_probe(probe);
  // A month-sized backlog already queued (e.g. after a GPRS outage).
  for (int i = 0; i < 300; ++i) {
    station.uploads().enqueue("dgps_backlog_" + std::to_string(i),
                              util::kib(165));
  }
  f.run_days(1.0);
  bool probe_file_received = false;
  for (const auto& file : f.server.received()) {
    if (file.name.rfind("probes_", 0) == 0) probe_file_received = true;
  }
  EXPECT_TRUE(probe_file_received);
  EXPECT_GT(station.uploads().queued_files(), 200u);  // backlog remains
}

TEST(StationFaults, GprsHangCountedAndSurvived) {
  Fixture f;
  auto config = f.reliable_base();
  // A state-3 day runs ~25 GPRS sessions (per-file), so even a small
  // per-session hang rate wedges some days.
  config.gprs.hang_per_session = 0.02;
  auto& station = f.make(config);
  f.run_days(6.0);
  EXPECT_GT(station.gprs().hangs(), 0);
  // Hung windows become watchdog aborts; the station keeps cycling and
  // clean days still complete.
  EXPECT_EQ(station.stats().runs_completed + station.stats().runs_aborted, 6);
  EXPECT_GE(station.stats().runs_completed, 1);
  EXPECT_EQ(station.stats().runs_aborted, station.watchdog().expiry_count());
}

TEST(StationFaults, ServerDownWindowDrivesDegradedModeAndRecovery) {
  // A scripted server_down window starves uploads; after
  // degrade_after_failed_days zero-progress days the station enters
  // log-only degraded mode, and the first successful upload after the
  // window exits it.
  Fixture f;
  auto config = f.reliable_base();
  config.degrade_after_failed_days = 2;
  auto& station = f.make(config);
  fault::FaultPlan plan;
  plan.add(fault::FaultWindow{fault::FaultKind::kServerDown, sim::days(0),
                              sim::days(4), 1.0});
  fault::FaultOracle oracle{plan, f.simulation.now()};
  station.set_fault_oracle(&oracle);

  f.run_days(3.0);
  EXPECT_TRUE(station.degraded());
  EXPECT_EQ(station.journal().count(obs::EventType::kDegradedEnter), 1u);
  EXPECT_EQ(f.server.files_from("base"), 0);
  EXPECT_GT(oracle.trips(fault::FaultKind::kServerDown), 0);

  f.run_days(5.0);  // window over: uploads progress again
  EXPECT_FALSE(station.degraded());
  EXPECT_EQ(station.journal().count(obs::EventType::kDegradedExit), 1u);
  EXPECT_GT(f.server.files_from("base"), 0);
  EXPECT_GE(station.stats().degraded_days, 1);
  EXPECT_TRUE(station.gprs().ledger_consistent());
}

TEST(StationFaults, GprsOutageWeekRecoversWithinRetryCadence) {
  // The §I wet-summer scenario as a plan: a week of gprs_outage severity 1.
  // Nothing leaves the glacier during the window; the first daily retry
  // after it drains the backlog — recovery is bounded by the retry cadence.
  Fixture f;
  auto& station = f.make(f.reliable_base());
  fault::FaultPlan plan;
  plan.add(fault::FaultWindow{fault::FaultKind::kGprsOutage, sim::days(1),
                              sim::days(7), 1.0});
  fault::FaultOracle oracle{plan, f.simulation.now()};
  station.set_fault_oracle(&oracle);
  f.run_days(9.0);
  const int received_at_window_end = f.server.files_from("base");
  f.run_days(2.0);  // at most two daily retries after the window
  EXPECT_GT(f.server.files_from("base"), received_at_window_end);
  EXPECT_GT(oracle.trips(fault::FaultKind::kGprsOutage), 0);
  EXPECT_TRUE(station.gprs().ledger_consistent());
}

}  // namespace
}  // namespace gw::station
