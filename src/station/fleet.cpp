#include "station/fleet.h"

#include <string>

namespace gw::station {

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)),
      simulation_(sim::to_time(config_.start)),
      environment_(config_.environment, config_.seed) {
  const util::Rng rng{config_.seed};

  fault::FaultOracle* oracle = nullptr;
  if (auto plan = assembly::parse_fault_plan(config_, "Fleet")) {
    fault_oracle_ =
        fault::FaultOracle{std::move(*plan), sim::to_time(config_.start)};
    fault_oracle_.set_hooks(obs::Hooks{&fault_metrics_, &fault_journal_});
    server_.set_fault_oracle(&fault_oracle_);
    oracle = &fault_oracle_;
  }
  server_.set_received_window(config_.server_received_window);
  // Anomaly paths (ingest_rejected, future_report) journal into the rollup
  // sinks; an honest season under default limits records nothing here.
  server_.set_hooks(rollup_.hooks());

  // Pass 1: stations in spec order, all on the one shared server. Pass 2:
  // their probes. Both passes schedule events, so the order is fixed.
  probes_.resize(config_.stations.size());
  for (std::size_t s = 0; s < config_.stations.size(); ++s) {
    const StationSpec& spec = config_.stations[s];
    stations_.push_back(assembly::build_station(
        simulation_, environment_, server_, rng, spec, oracle));
    if (!spec.sync_group.empty()) {
      server_.sync().assign_group(spec.station.name, spec.sync_group);
    }
    rollup_.add_station(*stations_[s], spec.sync_group, probes_[s]);
  }
  for (std::size_t s = 0; s < config_.stations.size(); ++s) {
    probes_[s] = assembly::build_probes(simulation_, environment_, rng,
                                        config_, config_.stations[s],
                                        *stations_[s]);
  }

  for (auto& built : stations_) built->start();

  if (config_.trace_enabled) sample_trace();
}

void Fleet::run_days(double days) {
  simulation_.run_until(simulation_.now() + sim::days(days));
}

void Fleet::sample_trace() {
  const sim::SimTime now = simulation_.now();
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    assembly::sample_station(trace_, config_, now, *stations_[s], probes_[s],
                             environment_);
  }
  trace_event_ = simulation_.schedule_in(assembly::kTraceInterval,
                                         [this] { sample_trace(); });
}

FleetConfig paper_fleet_config() {
  FleetConfig config;
  // Bare probe<id> names and an uncapped receipt ledger: the exports the
  // benches, examples and golden tests pin were recorded under them.
  config.station_scoped_probe_names = false;
  config.server_received_window = 0;

  // §III: base station harvest = 10 W solar + 50 W wind turbine; reference
  // station = solar panel + café mains (tourist season). The two stations
  // are one dGPS pair, so they share a sync group. Probes went in during
  // the summer 2008 field season (§V).
  StationSpec base;
  base.station.name = "base";
  base.station.role = StationRole::kBaseStation;
  base.sync_group = "dgps";
  base.chargers = {ChargerKind::kSolar, ChargerKind::kWind};
  base.probe_count = 7;

  StationSpec reference;
  reference.station.name = "reference";
  reference.station.role = StationRole::kReferenceStation;
  reference.sync_group = "dgps";
  reference.chargers = {ChargerKind::kSolar, ChargerKind::kMains};

  config.stations = {std::move(base), std::move(reference)};
  return config;
}

namespace {

// "%03d" without a fixed-size buffer: 7 -> "007", 1000 -> "1000".
std::string zero_padded(int value) {
  std::string digits = std::to_string(value);
  if (digits.size() < 3) digits.insert(0, 3 - digits.size(), '0');
  return digits;
}

}  // namespace

FleetConfig uniform_fleet_config(int stations, std::uint64_t seed) {
  FleetConfig config;
  config.seed = seed;
  // Summer anchor (see the fault-soak harness): the glacier winter already
  // zeroes harvest for real; a scaling sweep wants the sync dynamics, not a
  // seasonal battery collapse.
  config.start = sim::DateTime{2008, 6, 1, 0, 0, 0};
  config.trace_enabled = false;
  config.server_received_window = 4096;
  config.stations.reserve(std::size_t(stations));
  for (int i = 0; i < stations; ++i) {
    const bool base_role = (i % 2 == 0);
    StationSpec spec;
    spec.station.name = "s" + zero_padded(i);
    spec.station.role = base_role ? StationRole::kBaseStation
                                  : StationRole::kReferenceStation;
    // Real fleets don't wake in perfect unison: stagger the daily windows
    // a few minutes apart (47 is coprime to 60, so offsets spread).
    spec.station.wake_time_of_day = sim::hours(12) + sim::minutes(i % 47);
    spec.station.initial_state = base_role ? core::PowerState::kState3
                                           : core::PowerState::kState2;
    spec.station.power.battery.initial_soc = base_role ? 1.0 : 0.7;
    spec.sync_group = "g" + zero_padded(i / 2);
    spec.chargers = base_role
                        ? std::vector<ChargerKind>{ChargerKind::kSolar,
                                                   ChargerKind::kWind}
                        : std::vector<ChargerKind>{ChargerKind::kSolar,
                                                   ChargerKind::kMains};
    spec.probe_count = base_role ? 2 : 0;
    config.stations.push_back(std::move(spec));
  }
  return config;
}

}  // namespace gw::station
