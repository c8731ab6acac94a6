// The fleet assembly shared by the serial Fleet and the ShardedFleet: every
// decision that does not depend on who owns the environment and the server
// (docs/FLEET.md, "One assembly"). Both fleets call these, so for a given
// spec they install identical hardware, name the same trace series and
// roll up the same gauges.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/power_policy.h"
#include "env/environment.h"
#include "fault/fault.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "station/probe_node.h"
#include "station/southampton.h"
#include "station/station.h"
#include "util/rng.h"

namespace gw::station {

// station/fleet.h
struct FleetConfig;
struct StationSpec;

using ProbeList = std::vector<std::unique_ptr<ProbeNode>>;

// Convergence status of one sync group: converged when every member sits
// in the same power state right now.
struct GroupStatus {
  std::string name;
  int members = 0;
  bool converged = false;
  core::PowerState state = core::PowerState::kState0;  // when converged

  bool operator==(const GroupStatus&) const = default;
};

// The fleet rollup (docs/FLEET.md): the stations and probes in spec order,
// their sync groups, and the sinks update() fills.
class FleetRollup {
 public:
  // Enrols the next station in spec order, in sync group `group` ("" =
  // ungrouped). The station and its probe list must outlive the rollup.
  void add_station(const Station& station, const std::string& group,
                   const ProbeList& probes);

  // Real sync groups (ungrouped stations excluded): name -> member indices
  // in spec order.
  [[nodiscard]] const std::map<std::string, std::vector<std::size_t>>& groups()
      const {
    return groups_;
  }
  // Spec index of the station named `name`; nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> find(const std::string& name) const;
  [[nodiscard]] int probes_alive() const;
  // Status of every sync group, in group-name order.
  [[nodiscard]] std::vector<GroupStatus> group_status() const;

  // Recomputes the fleet.* gauges (yield counted off `ledger`) and journals
  // the group convergence flips since the previous refresh.
  obs::MetricsRegistry& update(const SouthamptonServer& ledger,
                               sim::SimTime now);

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] obs::EventJournal& journal() { return journal_; }
  [[nodiscard]] obs::Hooks hooks() { return obs::Hooks{&metrics_, &journal_}; }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(metrics_);
    ar.value(journal_);
    ar.value(last_converged_);
  }

 private:
  std::vector<const Station*> stations_;
  std::vector<const ProbeList*> probes_;
  // gwlint: allow(persist-coverage): re-enrolled by the fleet constructor
  std::map<std::string, std::vector<std::size_t>> groups_;
  obs::MetricsRegistry metrics_;
  obs::EventJournal journal_;
  // Convergence as of the last update(), per group name (absent = never
  // observed), for flip detection.
  std::map<std::string, bool> last_converged_;
};

namespace assembly {

// Per-probe spread: Fig 6 shows distinct conductivity curves for probes
// 21/24/25 — different positions relative to basal drainage give different
// baselines and melt responses; radio quality varies with depth/orientation.
// Fleets cycle the same seven variants per station.
struct ProbeVariant {
  double base_us;
  double gain_us;
  double link_quality;
};

inline constexpr ProbeVariant kProbeVariants[] = {
    {0.5, 9.0, 1.0},  {0.8, 13.5, 1.1}, {0.3, 7.0, 0.9}, {1.2, 15.0, 1.3},
    {0.6, 11.0, 1.0}, {0.9, 8.5, 1.2},  {0.4, 12.0, 0.8},
};

inline const ProbeVariant& probe_variant(int probe_index) {
  return kProbeVariants[std::size_t(probe_index) %
                        std::size(kProbeVariants)];
}

// The fleet's fault plan; nullopt when fault_spec is empty. A parse error
// throws std::invalid_argument prefixed with `owner`.
[[nodiscard]] std::optional<fault::FaultPlan> parse_fault_plan(
    const FleetConfig& config, std::string_view owner);

// One station forking `rng` by its name, with `oracle` (null = no fault
// plan) and the spec's chargers in order. Not started.
[[nodiscard]] std::unique_ptr<Station> build_station(
    sim::Simulation& kernel, env::Environment& environment,
    SouthamptonServer& server, const util::Rng& rng, const StationSpec& spec,
    fault::FaultOracle* oracle);

// The spec's subglacial probes, attached to `station`. Ids start at 20
// (the paper names probes 21/24/25); each forks `rng` by its series name.
[[nodiscard]] ProbeList build_probes(sim::Simulation& kernel,
                                     env::Environment& environment,
                                     const util::Rng& rng,
                                     const FleetConfig& config,
                                     const StationSpec& spec,
                                     Station& station);

// "base/probe21", or bare "probe21" under the legacy naming.
[[nodiscard]] std::string probe_series_name(const FleetConfig& config,
                                            const std::string& station,
                                            int probe_id);

// Trace cadence of both fleets: one sample_station() per station per
// kTraceInterval of simulated time.
inline constexpr sim::Duration kTraceInterval = sim::minutes(30);

// One kTraceInterval sample: "<station>.voltage/.state/.soc", then each
// live probe's "<series>.conductivity" in probe order.
void sample_station(sim::Trace& trace, const FleetConfig& config,
                    sim::SimTime now, Station& station,
                    const ProbeList& probes, env::Environment& environment);

}  // namespace assembly
}  // namespace gw::station
