// Quickstart: assemble the full Glacsweb Iceland deployment — glacier base
// station, café reference station, Southampton server, seven subglacial
// probes — run it for 30 simulated days, and read the ledgers.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "station/fleet.h"

int main() {
  using namespace gw;

  station::FleetConfig config = station::paper_fleet_config();
  config.seed = 2008;
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};  // the field season

  station::Fleet fleet{config};
  fleet.run_days(30.0);

  std::printf("Glacsweb deployment after 30 days (from %s)\n\n",
              sim::format_iso(sim::to_time(config.start)).c_str());

  for (auto* s : {&fleet.station(0), &fleet.station(1)}) {
    const auto& stats = s->stats();
    std::printf("[%s station]\n", s->name().c_str());
    std::printf("  power state now: %d, battery SoC %.0f%%\n",
                core::to_int(s->current_state()),
                100.0 * s->power().battery().soc());
    std::printf("  daily runs: %d completed, %d aborted by watchdog\n",
                stats.runs_completed, stats.runs_aborted);
    std::printf("  dGPS files fetched: %d\n", stats.gps_files_fetched);
    std::printf("  GPRS: %.2f MiB sent, %d sessions, %d failures, cost %.2f\n",
                s->gprs().bytes_sent().mib(), s->gprs().sessions_attempted(),
                s->gprs().registration_failures(), s->gprs().data_cost());
    std::printf("  energy harvested: %.1f Wh, consumed: %.1f Wh\n",
                s->power().total_harvested().value() / 3600.0,
                s->power().total_consumed().value() / 3600.0);
    if (s->config().role == station::StationRole::kBaseStation) {
      std::printf("  probe readings retrieved: %zu\n",
                  stats.probe_readings_delivered);
    }
    std::printf("\n");
  }

  std::printf("[Southampton server]\n");
  std::printf("  files received: %d from base, %d from reference\n",
              fleet.server().files_from("base"),
              fleet.server().files_from("reference"));
  std::printf("  data volume: %.2f MiB from base, %.2f MiB from reference\n",
              fleet.server().bytes_from("base").mib(),
              fleet.server().bytes_from("reference").mib());

  std::printf("\n[probes]\n  alive: %d/7\n", fleet.probes_alive());
  for (const auto& probe : fleet.probes(0)) {
    std::printf("  probe %d: %s, %u readings sampled, %zu delivered\n",
                probe->id(), probe->alive() ? "alive" : "offline",
                probe->readings_sampled(), probe->store().delivered_total());
  }
  return 0;
}
