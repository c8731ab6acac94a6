// Helpers the fleet workloads share: the seed-independent invariants of a
// simulated world, checked after every timed unit of work (they hold for
// any seed, so a speed-only change that breaks one has changed what the
// simulator computes), and the estimate of environment time per power tick.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/error.h"
#include "station/fleet.h"
#include "station/sharded_fleet.h"
#include "station/station.h"
#include "workloads.h"

namespace gw::perfbench {

// Exact microjoule conservation: a station's per-component, per-state
// ledgers sum to its battery-side delivered meter.
inline void check_conservation(station::Station& station,
                               std::vector<std::string>& failures) {
  const auto& power = station.power();
  if (power.component_microjoules() != power.delivered_microjoules()) {
    failures.push_back(station.name() + ": component ledgers " +
                       std::to_string(power.component_microjoules()) +
                       " uJ != delivered " +
                       std::to_string(power.delivered_microjoules()) + " uJ");
  }
}

// Serial fleet: every station conserves energy, and the server's file
// total is the sum of its per-station upload counters.
inline void check_fleet(station::Fleet& fleet,
                        std::vector<std::string>& failures) {
  std::uint64_t files = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    check_conservation(fleet.station(i), failures);
    files += std::uint64_t(fleet.server().files_from(fleet.station(i).name()));
  }
  if (files != fleet.server().files_received()) {
    failures.push_back("server holds " +
                       std::to_string(fleet.server().files_received()) +
                       " files, stations uploaded " + std::to_string(files));
  }
}

// Sharded fleet: every station conserves energy, and once no message is in
// flight the hub holds exactly the files each station's replica accepted.
inline void check_sharded(station::ShardedFleet& fleet,
                          std::vector<std::string>& failures) {
  std::uint64_t replica_files = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    station::Station& station = fleet.station(i);
    check_conservation(station, failures);
    const int replica = fleet.station_server(i).files_from(station.name());
    const int hub = fleet.hub().files_from(station.name());
    replica_files += std::uint64_t(replica);
    if (fleet.sharded().messages_pending() == 0 && replica != hub) {
      failures.push_back(station.name() + ": hub holds " +
                         std::to_string(hub) + " files, replica accepted " +
                         std::to_string(replica));
    }
  }
  if (fleet.hub().files_received() > replica_files) {
    failures.push_back("hub holds more files than the replicas accepted");
  }
}

// Saves the fleet at the first whole minute from now at which it is
// quiescent (no daily run, dGPS reading or GPRS session in flight), so the
// same seed always saves at the same simulated time.
inline std::vector<std::uint8_t> save_when_quiescent(station::Fleet& fleet) {
  for (int minute = 0;; ++minute) {
    try {
      return fleet.save_snapshot();
    } catch (const snapshot::SnapshotError& error) {
      if (error.code() != snapshot::SnapshotErrc::kNotQuiescent ||
          minute >= 24 * 60) {
        throw;
      }
    }
    fleet.simulation().run_until(fleet.simulation().now() + sim::minutes(1));
  }
}

// Estimated environment time one power tick spends for a station with
// these chargers: the air temperature, then each charger's input draw.
inline double env_ns_per_tick(const station::StationSpec& spec,
                              const LayerCosts& costs) {
  double ns = costs.air_ns;
  for (const station::ChargerKind kind : spec.chargers) {
    switch (kind) {
      case station::ChargerKind::kSolar: ns += costs.irradiance_ns; break;
      case station::ChargerKind::kWind: ns += costs.wind_speed_ns; break;
      case station::ChargerKind::kMains: ns += costs.to_datetime_ns; break;
    }
  }
  return ns;
}

}  // namespace gw::perfbench
