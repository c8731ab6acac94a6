// Deployment: the paper's Iceland field system as a two-station preset
// over the fleet layer.
//
// One object assembles what the paper deployed in 2008: a glacier base
// station (solar + wind, 7 subglacial probes, dGPS, GPRS), a café reference
// station (solar + seasonal mains, fixed dGPS, GPRS), the Southampton
// server mediating them, and the shared environment — all reproducible
// from a single seed. The benches and examples run a Deployment for N days
// and read the ledgers and traces off it.
//
// Since the fleet refactor this class owns no wiring of its own: it maps
// DeploymentConfig onto a two-StationSpec FleetConfig (both stations in
// sync group "dgps", legacy bare probe<id> trace names) and delegates.
// Exports are byte-identical to the pre-fleet hand-wired assembly — the
// shape-stability suite pins that equivalence.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "station/fleet.h"

namespace gw::station {

struct DeploymentConfig {
  std::uint64_t seed = 42;
  // Probes went in during the summer 2008 field season (§V).
  sim::DateTime start{2008, 9, 1, 0, 0, 0};
  int probe_count = 7;
  env::EnvironmentConfig environment;
  StationConfig base;
  StationConfig reference;
  bool trace_enabled = true;
  // Optional fault plan (docs/FAULTS.md spec text). When non-empty it is
  // parsed at construction, anchored at `start`, and wired into both
  // stations and the server. A parse error throws std::invalid_argument:
  // a scripted season that silently runs clean would defeat the test.
  std::string fault_spec;

  DeploymentConfig() {
    base.name = "base";
    base.role = StationRole::kBaseStation;
    reference.name = "reference";
    reference.role = StationRole::kReferenceStation;
  }

  // The equivalent fleet description: base (solar + wind, the probes) and
  // reference (solar + mains) paired in sync group "dgps", legacy probe
  // naming. Exposed so fleet users can start from the paper's shape.
  [[nodiscard]] FleetConfig to_fleet_config() const;
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config = {});

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Advances the whole system by `days` simulated days.
  void run_days(double days) { fleet_.run_days(days); }

  [[nodiscard]] sim::Simulation& simulation() { return fleet_.simulation(); }
  [[nodiscard]] env::Environment& environment() {
    return fleet_.environment();
  }
  [[nodiscard]] SouthamptonServer& server() { return fleet_.server(); }
  [[nodiscard]] Station& base() { return fleet_.station(0); }
  [[nodiscard]] Station& reference() { return fleet_.station(1); }
  [[nodiscard]] std::vector<std::unique_ptr<ProbeNode>>& probes() {
    return fleet_.probes(0);
  }

  [[nodiscard]] int probes_alive() const { return fleet_.probes_alive(); }

  // 30-minute series: "<station>.voltage", "<station>.state",
  // "<station>.soc", and "probe<id>.conductivity" — the raw material for
  // the Fig 5 / Fig 6 benches.
  [[nodiscard]] sim::Trace& trace() { return fleet_.trace(); }

  // The shared fault oracle (always present; empty plan when no fault_spec
  // was given) and its instrumentation pair — fleet-level observables the
  // soak harness exports alongside the per-station registries.
  [[nodiscard]] fault::FaultOracle& fault_oracle() {
    return fleet_.fault_oracle();
  }
  [[nodiscard]] obs::MetricsRegistry& fault_metrics() {
    return fleet_.fault_metrics();
  }
  [[nodiscard]] obs::EventJournal& fault_journal() {
    return fleet_.fault_journal();
  }

  // The underlying fleet (rollup registry, group status, probe namespace).
  [[nodiscard]] Fleet& fleet() { return fleet_; }

  [[nodiscard]] const DeploymentConfig& config() const { return config_; }

 private:
  DeploymentConfig config_;
  Fleet fleet_;
};

}  // namespace gw::station
