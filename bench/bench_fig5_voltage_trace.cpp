// Fig 5 — "Sample data from Base Station showing Diurnal changes and
// ripples due to background dGPS task" (22–25 Sep 2009).
//
// The figure shows: battery voltage between ~12.0 and ~14.5 V with diurnal
// peaks near midday; the station initially *held in state 2 by the remote
// override* although voltage allowed state 3; after release it moves to
// state 3 and regular dips at 2-hour intervals appear (the dGPS reading
// every 2 h); recharge recovers the energy between dips.
//
// We run the full deployment over the same calendar window, hold the
// manual override at 2 for the first day and a half, then release it, and
// print the 30-minute voltage/state series plus shape diagnostics.
#include <cstdio>

#include "bench_util.h"
#include "sim/trace_export.h"
#include "station/fleet.h"
#include "util/strings.h"

namespace gw {
namespace {

void run() {
  bench::heading(
      "Fig 5: base-station voltage + power state, 22-25 Sep 2009 window");

  station::FleetConfig config = station::paper_fleet_config();
  auto& base = config.stations[0].station;
  auto& reference = config.stations[1].station;
  config.start = sim::DateTime{2009, 9, 15, 0, 0, 0};
  base.power.battery.initial_soc = 0.97;
  reference.power.battery.initial_soc = 0.97;
  base.gprs.registration_success = 1.0;
  base.gprs.drop_per_minute = 0.0;
  reference.gprs.registration_success = 1.0;
  reference.gprs.drop_per_minute = 0.0;
  base.initial_state = core::PowerState::kState2;
  reference.initial_state = core::PowerState::kState2;
  station::Fleet fleet{config};

  // Hold the stations in state 2 by remote override (the Fig 5 annotation),
  // releasing at 13:00 on 23 Sep.
  fleet.server().sync().set_manual_override(core::PowerState::kState2);
  const sim::SimTime release = sim::to_time({2009, 9, 23, 13, 0, 0});
  fleet.simulation().schedule_at(release, [&fleet] {
    fleet.server().sync().set_manual_override(std::nullopt);
  });

  fleet.run_days(11.0);  // through 26 Sep

  const auto& trace = fleet.trace();
  const auto& voltage = trace.series("base.voltage");
  const auto& state = trace.series("base.state");

  const sim::SimTime window_start = sim::at_midnight(2009, 9, 22);
  const sim::SimTime window_end = sim::at_midnight(2009, 9, 26);

  bench::subheading("series (30-min samples; columns: UTC, V, state)");
  for (std::size_t i = 0; i < voltage.size(); ++i) {
    const auto t = voltage[i].time;
    if (t < window_start || t >= window_end) continue;
    const int state_now = int(trace.value_at("base.state", t));
    std::printf("  %s  %6.2f V  state %d\n", sim::format_iso(t).c_str(),
                voltage[i].value, state_now);
  }

  // --- shape diagnostics ---------------------------------------------------
  bench::subheading("shape checks vs the published figure");

  // 1. Voltage band.
  double v_min = 1e9;
  double v_max = -1e9;
  for (const auto& point : voltage) {
    if (point.time < window_start || point.time >= window_end) continue;
    v_min = std::min(v_min, point.value);
    v_max = std::max(v_max, point.value);
  }
  bench::paper_vs_measured("voltage band", "~12.0-14.5 V",
                           util::format_fixed(v_min, 2) + "-" +
                               util::format_fixed(v_max, 2) + " V");

  // 2. Diurnal peak near midday: for each day find the argmax hour.
  for (int day = 22; day <= 25; ++day) {
    const auto day_start = sim::at_midnight(2009, 9, day);
    double best_v = -1.0;
    double best_hour = -1.0;
    for (const auto& point : voltage) {
      if (point.time < day_start || point.time >= day_start + sim::days(1)) {
        continue;
      }
      if (point.value > best_v) {
        best_v = point.value;
        best_hour = sim::time_of_day(point.time).to_hours();
      }
    }
    bench::paper_vs_measured(
        "peak hour on Sep " + std::to_string(day), "~midday",
        util::format_fixed(best_hour, 1) + " h (" +
            util::format_fixed(best_v, 2) + " V)");
  }
  bench::note(
      "note: the paper itself observes that under wind+solar recharge "
      "\"there is no regular pattern\" (Sec III on Fig 5's state-2 days); "
      "night-time wind can displace a day's maximum away from noon");

  // 3. Override hold then release: state before vs after.
  const double state_before =
      trace.value_at("base.state", release - sim::hours(2));
  const double state_after =
      trace.value_at("base.state", release + sim::days(1) + sim::hours(2));
  bench::paper_vs_measured("state while override held", "2",
                           util::format_fixed(state_before, 0));
  bench::paper_vs_measured("state after release", "3",
                           util::format_fixed(state_after, 0));

  // 4. In state 3 the dGPS fires every 2 h (12/day).
  int gps_day_readings = 0;
  (void)state;
  const int readings_before = fleet.station(0).dgps().readings_taken();
  fleet.run_days(1.0);
  gps_day_readings = fleet.station(0).dgps().readings_taken() -
                     readings_before;
  bench::paper_vs_measured("dGPS readings per state-3 day",
                           "12 (2-hour dips)",
                           std::to_string(gps_day_readings) +
                               " (incl. fetch-time bonus reading)");

  // --- machine-readable export (glacsweb.bench.v1) -----------------------
  obs::BenchReport report;
  report.bench = "fig5_voltage_trace";
  report.meta = {{"paper", "Fig 5"},
                 {"window", "2009-09-22..2009-09-26"},
                 {"seed", std::to_string(fleet.config().seed)}};
  report.sections = {
      {"base", &fleet.station(0).metrics(), &fleet.station(0).journal()},
      {"reference", &fleet.station(1).metrics(),
       &fleet.station(1).journal()}};
  report.series = sim::to_obs_series(
      trace, std::vector<std::string>{"base.voltage", "base.state"},
      window_start, window_end);
  bench::export_report(report);
}

}  // namespace
}  // namespace gw

int main() {
  gw::run();
  return 0;
}
