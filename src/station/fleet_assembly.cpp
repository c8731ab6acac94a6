#include "station/fleet_assembly.h"

#include <stdexcept>

#include "power/chargers.h"
#include "station/fleet.h"

namespace gw::station {

void FleetRollup::add_station(const Station& station, const std::string& group,
                              const ProbeList& probes) {
  if (!group.empty()) groups_[group].push_back(stations_.size());
  stations_.push_back(&station);
  probes_.push_back(&probes);
}

std::optional<std::size_t> FleetRollup::find(const std::string& name) const {
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    if (stations_[s]->name() == name) return s;
  }
  return std::nullopt;
}

int FleetRollup::probes_alive() const {
  int alive = 0;
  for (const ProbeList* probes : probes_) {
    for (const auto& probe : *probes) {
      if (probe->alive()) ++alive;
    }
  }
  return alive;
}

std::vector<GroupStatus> FleetRollup::group_status() const {
  std::vector<GroupStatus> all;
  all.reserve(groups_.size());
  for (const auto& [name, members] : groups_) {
    GroupStatus status;
    status.name = name;
    status.converged = true;
    for (const std::size_t member : members) {
      const core::PowerState state = stations_[member]->current_state();
      if (status.members == 0) {
        status.state = state;
      } else if (state != status.state) {
        status.converged = false;
      }
      ++status.members;
    }
    all.push_back(std::move(status));
  }
  return all;
}

obs::MetricsRegistry& FleetRollup::update(const SouthamptonServer& ledger,
                                          sim::SimTime now) {
  int up = 0;
  double yield_bytes = 0.0;
  for (const Station* station : stations_) {
    if (station->current_state() != core::PowerState::kState0) ++up;
    yield_bytes += double(ledger.bytes_from(station->name()).count());
  }
  const auto groups = group_status();
  int converged = 0;
  for (const auto& group : groups) {
    if (group.converged) ++converged;
    // Journal the flips, not the steady state: the rollup journal reads as
    // "when did pair g3 fall out of lockstep, when did it recover".
    const auto last = last_converged_.find(group.name);
    if (last == last_converged_.end() || last->second != group.converged) {
      journal_.record(
          now.millis_since_epoch(),
          group.converged ? obs::EventType::kGroupConverged
                          : obs::EventType::kGroupDiverged,
          group.name, double(group.members),
          group.converged ? double(core::to_int(group.state)) : 0.0);
      last_converged_[group.name] = group.converged;
    }
  }
  metrics_.gauge("fleet", "stations_total").set(double(stations_.size()));
  metrics_.gauge("fleet", "stations_up").set(double(up));
  metrics_.gauge("fleet", "groups_total").set(double(groups.size()));
  metrics_.gauge("fleet", "groups_converged").set(double(converged));
  metrics_.gauge("fleet", "yield_bytes").set(yield_bytes);
  metrics_.gauge("fleet", "probes_alive").set(double(probes_alive()));
  return metrics_;
}

namespace assembly {
namespace {

std::unique_ptr<power::Charger> make_charger(ChargerKind kind) {
  switch (kind) {
    case ChargerKind::kSolar:
      return std::make_unique<power::SolarPanel>(power::SolarPanelConfig{});
    case ChargerKind::kWind:
      return std::make_unique<power::WindTurbine>(power::WindTurbineConfig{});
    case ChargerKind::kMains:
      return std::make_unique<power::MainsCharger>(
          power::MainsChargerConfig{});
  }
  throw std::invalid_argument("fleet assembly: unknown charger kind");
}

}  // namespace

std::optional<fault::FaultPlan> parse_fault_plan(const FleetConfig& config,
                                                 std::string_view owner) {
  if (config.fault_spec.empty()) return std::nullopt;
  auto plan = fault::FaultPlan::parse(config.fault_spec);
  if (!plan.ok()) {
    throw std::invalid_argument(std::string(owner) + ": " +
                                plan.error().message);
  }
  return std::move(plan.value());
}

std::unique_ptr<Station> build_station(sim::Simulation& kernel,
                                       env::Environment& environment,
                                       SouthamptonServer& server,
                                       const util::Rng& rng,
                                       const StationSpec& spec,
                                       fault::FaultOracle* oracle) {
  // Forked by name, not by position: assembly order never perturbs draws.
  auto station = std::make_unique<Station>(
      kernel, environment, server, rng.fork(spec.station.name), spec.station);
  if (oracle != nullptr) station->set_fault_oracle(oracle);
  for (const ChargerKind kind : spec.chargers) {
    station->add_charger(make_charger(kind));
  }
  return station;
}

ProbeList build_probes(sim::Simulation& kernel, env::Environment& environment,
                       const util::Rng& rng, const FleetConfig& config,
                       const StationSpec& spec, Station& station) {
  ProbeList probes;
  for (int i = 0; i < spec.probe_count; ++i) {
    const ProbeVariant& variant = probe_variant(i);
    ProbeNodeConfig probe_config;
    probe_config.probe_id = 20 + i;
    probe_config.conductivity_base_us = variant.base_us;
    probe_config.conductivity_gain_us = variant.gain_us;
    probe_config.link_quality_factor = variant.link_quality;
    probes.push_back(std::make_unique<ProbeNode>(
        kernel, environment,
        rng.fork(probe_series_name(config, spec.station.name,
                                   probe_config.probe_id)),
        probe_config));
    station.add_probe(*probes.back());
  }
  return probes;
}

std::string probe_series_name(const FleetConfig& config,
                              const std::string& station, int probe_id) {
  const std::string bare = "probe" + std::to_string(probe_id);
  return config.station_scoped_probe_names ? station + "/" + bare : bare;
}

void sample_station(sim::Trace& trace, const FleetConfig& config,
                    sim::SimTime now, Station& station,
                    const ProbeList& probes, env::Environment& environment) {
  const std::string prefix = station.name() + ".";
  trace.add(prefix + "voltage", now,
            station.power().terminal_voltage().value());
  trace.add(prefix + "state", now,
            double(core::to_int(station.current_state())));
  trace.add(prefix + "soc", now, station.power().battery().soc());
  for (const auto& probe : probes) {
    if (!probe->alive()) continue;
    const auto conductivity = environment.melt().conductivity(
        now, environment.temperature(), probe->config().conductivity_base_us,
        probe->config().conductivity_gain_us);
    trace.add(probe_series_name(config, station.name(), probe->id()) +
                  ".conductivity",
              now, conductivity.value());
  }
}

}  // namespace assembly
}  // namespace gw::station
