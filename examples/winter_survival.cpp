// Winter survival: the scenario the whole design exists for (§I, §III).
//
// The stations "have to be capable of surviving a long winter (Dec–March)
// by minimising their tasks": snow buries the solar panel and eventually
// the wind turbine, harvest collapses, and the voltage-driven power states
// shed the dGPS and finally all communications. This example runs October
// through May and prints a monthly log of harvest, battery, power state and
// delivered data — then repeats the winter with the power policy disabled
// (pinned to state 3) to show why adaptation matters.
#include <cstdio>

#include "station/fleet.h"

namespace {

struct MonthRow {
  int year;
  int month;
  double harvest_wh = 0.0;
  double consumed_wh = 0.0;
  double soc_end = 0.0;
  int state_end = 0;
  int files = 0;
};

void run_winter(bool adaptive) {
  using namespace gw;
  station::FleetConfig config = station::paper_fleet_config();
  config.seed = 77;
  config.start = sim::DateTime{2008, 10, 1, 0, 0, 0};
  if (!adaptive) {
    // Ablation: pin the policy so every daily average maps to state 3 —
    // on BOTH stations, or the server's min rule would re-impose the
    // healthy station's adaptive state on the pinned one.
    for (auto& spec : config.stations) {
      spec.station.policy.state3_threshold = util::Volts{0.0};
      spec.station.policy.state2_threshold = util::Volts{0.0};
      spec.station.policy.state1_threshold = util::Volts{0.0};
      spec.station.initial_state = core::PowerState::kState3;
    }
  }
  config.trace_enabled = false;
  station::Fleet fleet{config};

  std::printf("\n%s winter (base station):\n",
              adaptive ? "ADAPTIVE (Table 2 policy)" : "PINNED STATE 3");
  std::printf("  %-8s %9s %10s %7s %6s %6s %11s\n", "month", "harvestWh",
              "consumedWh", "SoC", "state", "files", "brown-outs");

  double prev_harvest = 0.0;
  double prev_consumed = 0.0;
  int prev_files = 0;
  for (int month_index = 0; month_index < 8; ++month_index) {
    const auto now = fleet.simulation().now();
    const auto dt = sim::to_datetime(now);
    // Run to the start of the next month.
    int year = dt.year;
    int month = dt.month + 1;
    if (month > 12) {
      month = 1;
      ++year;
    }
    fleet.simulation().run_until(sim::at_midnight(year, month, 1));

    auto& base = fleet.station(0);
    const double harvest = base.power().total_harvested().value() / 3600.0;
    const double consumed = base.power().total_consumed().value() / 3600.0;
    const int files = fleet.server().files_from("base");
    std::printf("  %04d-%02d  %9.1f %10.1f %6.0f%% %6d %6d %11d\n", dt.year,
                dt.month, harvest - prev_harvest, consumed - prev_consumed,
                100.0 * base.power().battery().soc(),
                core::to_int(base.current_state()), files - prev_files,
                base.stats().brown_outs);
    prev_harvest = harvest;
    prev_consumed = consumed;
    prev_files = files;
  }

  const auto& stats = fleet.station(0).stats();
  std::printf(
      "  => runs completed %d, aborted %d, brown-outs %d, cold boots %d, "
      "probe readings %zu\n",
      stats.runs_completed, stats.runs_aborted, stats.brown_outs,
      stats.cold_boots, stats.probe_readings_delivered);
}

}  // namespace

int main() {
  std::printf("Winter survival, October 2008 - May 2009 (Vatnajokull)\n");
  run_winter(/*adaptive=*/true);
  run_winter(/*adaptive=*/false);
  std::printf(
      "\nThe adaptive policy sheds the dGPS (states 2->1) and finally GPRS "
      "(state 0)\nas harvest collapses; the pinned station spends 12 dGPS "
      "readings a day into a\ndead battery and brown-outs follow (Sec III).\n");
  return 0;
}
