// Trace exporter: run the deployment over a calendar window and emit the
// Fig 5 / Fig 6 raw series as CSV — ready for gnuplot/matplotlib to render
// the figures exactly as published.
//
//   export_traces fig5 > fig5.csv    # 30-min voltage+state, Sep 2009
//   export_traces fig6 > fig6.csv    # conductivity, Jan-Apr 2009
//   export_traces year > year.csv    # a full year of everything
#include <cstdio>
#include <cstring>

#include "station/fleet.h"

namespace {

using namespace gw;

void emit_csv(station::Fleet& fleet,
              const std::vector<std::string>& series, sim::SimTime from,
              sim::SimTime to) {
  std::printf("utc");
  for (const auto& name : series) std::printf(",%s", name.c_str());
  std::printf("\n");
  const auto& trace = fleet.trace();
  // All series share the 30-min sampling grid; walk the first one.
  for (const auto& point : trace.series(series.front())) {
    if (point.time < from || point.time >= to) continue;
    std::printf("%s", sim::format_iso(point.time).c_str());
    for (const auto& name : series) {
      std::printf(",%.4f", trace.value_at(name, point.time));
    }
    std::printf("\n");
  }
}

int run_fig5() {
  station::FleetConfig config = station::paper_fleet_config();
  auto& base = config.stations[0].station;
  auto& reference = config.stations[1].station;
  config.start = sim::DateTime{2009, 9, 15, 0, 0, 0};
  base.power.battery.initial_soc = 0.97;
  base.initial_state = core::PowerState::kState2;
  reference.initial_state = core::PowerState::kState2;
  station::Fleet fleet{config};
  fleet.server().sync().set_manual_override(core::PowerState::kState2);
  fleet.simulation().schedule_at(
      sim::to_time({2009, 9, 23, 13, 0, 0}), [&fleet] {
        fleet.server().sync().set_manual_override(std::nullopt);
      });
  fleet.run_days(11.0);
  emit_csv(fleet, {"base.voltage", "base.state"},
           sim::at_midnight(2009, 9, 22), sim::at_midnight(2009, 9, 26));
  return 0;
}

int run_fig6() {
  station::FleetConfig config = station::paper_fleet_config();
  config.start = sim::DateTime{2009, 1, 20, 0, 0, 0};
  station::Fleet fleet{config};
  fleet.run_days(95.0);
  emit_csv(fleet,
           {"probe21.conductivity", "probe24.conductivity",
            "probe25.conductivity"},
           sim::at_midnight(2009, 1, 27), sim::at_midnight(2009, 4, 22));
  return 0;
}

int run_year() {
  station::FleetConfig config = station::paper_fleet_config();
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
  station::Fleet fleet{config};
  fleet.run_days(365.0);
  emit_csv(fleet,
           {"base.voltage", "base.state", "base.soc", "reference.voltage",
            "reference.state", "reference.soc"},
           sim::at_midnight(2008, 9, 1), sim::at_midnight(2009, 9, 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "fig5") == 0) return run_fig5();
  if (argc == 2 && std::strcmp(argv[1], "fig6") == 0) return run_fig6();
  if (argc == 2 && std::strcmp(argv[1], "year") == 0) return run_year();
  std::fprintf(stderr, "usage: %s fig5|fig6|year  (CSV on stdout)\n",
               argv[0]);
  return 1;
}
