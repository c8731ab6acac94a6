// Workload "season": the lifetime study users run most. One 32-station
// uniform_fleet_config world, start moved to 2008-09-01, 180 days from
// autumn into the Vatnajokull winter, trace on, under bench_fault_soak's
// scripted adversarial plan, on one thread. No coordinator, no query
// traffic; the one snapshot (for the fingerprint) is taken outside the
// timed region.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fleet_support.h"
#include "snapshot/state_writer.h"
#include "station/fleet.h"
#include "workloads.h"

namespace gw::perfbench {
namespace {

// bench_fault_soak's scripted season (docs/FAULTS.md).
constexpr const char* kSoakSpec =
    "gprs_outage      start=20d duration=7d  severity=1.0\n"
    "dgps_no_fix      start=35d duration=3d  severity=0.9\n"
    "cf_write_fail    start=45d duration=2d  severity=0.3\n"
    "server_down      start=50d duration=36h\n"
    "harvest_blackout start=70d duration=12d severity=1.0\n";

// Digests of the full-scale season on kDefaultSeed: kernel events over the
// 180 days and the GWSNAP fingerprint at the first quiescent minute from
// +17 min on.
constexpr std::uint64_t kPinnedEvents = 8'864'058;
constexpr std::uint32_t kPinnedFingerprint = 0x1c7d3b9c;

struct Shape {
  int stations;
  int days;
};

Shape shape_of(Scale scale) {
  return scale == Scale::kFull ? Shape{32, 180} : Shape{8, 20};
}

station::FleetConfig season_config(const Shape& shape, std::uint64_t seed) {
  station::FleetConfig config =
      station::uniform_fleet_config(shape.stations, seed);
  config.start = sim::DateTime{2008, 9, 1, 0, 0, 0};
  config.trace_enabled = true;
  config.fault_spec = kSoakSpec;
  return config;
}

struct SeasonResult {
  double run_s = 0.0;
  std::vector<double> day_ms;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  double env_ns = 0.0;  // estimated time in env draws made by power ticks
  std::uint32_t fingerprint = 0;
  std::vector<std::string> failures;
};

SeasonResult run_once(const Context& ctx, const Shape& shape,
                      const LayerCosts& costs) {
  Tracer& tracer = *ctx.tracer;
  const std::uint32_t day_span = tracer.name("station.season.day");
  const std::uint32_t construct_span = tracer.name("station.season.construct");
  SeasonResult result;
  const station::FleetConfig config = season_config(shape, ctx.seed);

  std::unique_ptr<station::Fleet> fleet;
  {
    const Tracer::Span span(tracer, construct_span);
    fleet = std::make_unique<station::Fleet>(config);
  }

  result.day_ms.reserve(std::size_t(shape.days));
  for (int day = 0; day < shape.days; ++day) {
    const double scale = ctx.calibrate();
    const std::int64_t start = now_ns();
    {
      const Tracer::Span span(tracer, day_span);
      fleet->run_days(1.0);
    }
    const double seconds = seconds_since(start) * scale;
    result.run_s += seconds;
    result.day_ms.push_back(seconds * 1e3);
  }

  // Untimed verification.
  result.events = fleet->simulation().events_executed();
  for (std::size_t i = 0; i < fleet->size(); ++i) {
    const std::uint64_t ticks =
        std::uint64_t(sim::days(shape.days).millis() /
                      fleet->station(i).power().tick_interval().millis());
    result.ticks += ticks;
    result.env_ns += double(ticks) * env_ns_per_tick(config.stations[i], costs);
  }
  check_fleet(*fleet, result.failures);
  fleet->simulation().run_until(fleet->simulation().now() + sim::minutes(17));
  result.fingerprint = snapshot::fingerprint(save_when_quiescent(*fleet));
  return result;
}

}  // namespace

void run_season(const Context& ctx, const LayerCosts& costs, Outcome& out) {
  const Shape shape = shape_of(ctx.scale);
  Tracer& tracer = *ctx.tracer;
  const bool tracing = tracer.enabled();
  const std::uint64_t station_days =
      std::uint64_t(shape.stations) * std::uint64_t(shape.days);

  // Timed: whole seasons, tracing off. Traced at full scale: one untraced
  // season as the overhead baseline, then one traced. Probe scale: one
  // traced season.
  const int reps = !ctx.traced ? ctx.repetitions(5.0)
                   : ctx.scale == Scale::kFull ? 2
                                               : 1;
  // Set-up: building the world, timed 21 times before anything else runs
  // in the process. The first three are not timed: a fresh heap and a core
  // that was idle a moment ago would make them read slow.
  std::vector<double> setup;
  for (int i = -3; !ctx.traced && i < 21; ++i) {
    const double scale = ctx.calibrate();
    const std::int64_t start = now_ns();
    const station::Fleet fleet{season_config(shape, ctx.seed)};
    if (i >= 0) setup.push_back(seconds_since(start) * scale);
  }
  std::vector<SeasonResult> runs;
  for (int rep = 0; rep < reps; ++rep) {
    const bool trace_this = tracing && (ctx.scale == Scale::kProbe || rep == 1);
    tracer.set_enabled(trace_this);
    runs.push_back(run_once(ctx, shape, costs));
    tracer.set_enabled(tracing);
  }

  for (std::size_t rep = 0; rep < runs.size(); ++rep) {
    SeasonResult& run = runs[rep];
    out.attempted += station_days;
    if (run.events != runs.front().events ||
        run.fingerprint != runs.front().fingerprint) {
      run.failures.push_back("season is not deterministic: repetition " +
                             std::to_string(rep) + " differs");
    }
    if (ctx.pinned() && (run.events != kPinnedEvents ||
                         run.fingerprint != kPinnedFingerprint)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "pinned digest mismatch: events %llu fingerprint %08x, "
                    "expected %llu %08x",
                    (unsigned long long)run.events, run.fingerprint,
                    (unsigned long long)kPinnedEvents, kPinnedFingerprint);
      run.failures.push_back(buf);
    }
    for (const std::string& why : run.failures) {
      out.fail(station_days, "season: " + why);
    }
  }
  std::printf("# season: %d stations x %d days, events %llu, fingerprint "
              "%08x\n",
              shape.stations, shape.days,
              (unsigned long long)runs.front().events,
              runs.front().fingerprint);

  if (!ctx.traced) {
    std::vector<std::vector<double>> day_us;
    for (const SeasonResult& run : runs) {
      day_us.emplace_back();
      for (const double ms : run.day_ms) day_us.back().push_back(ms * 1e3);
    }
    const std::vector<double> best = best_of(day_us);
    set_end_to_end(ctx, out, double(station_days), sum(best) * 1e-6, best,
                   setup, "station-days");
    return;
  }

  const SeasonResult& traced = runs.back();
  const SeasonResult& base = runs.front();
  MetricTable& m = out.metrics;
  const double run_ns = base.run_s * 1e9;
  m.set("sim.events", "count", double(base.events));
  m.set("sim.host_ns_per_event", "ns", run_ns / double(base.events));
  m.set("power.ticks", "count", double(base.ticks));
  const double sim_share = double(base.events) * costs.dispatch_ns / run_ns;
  const double power_share = double(base.ticks) * costs.tick_ns / run_ns;
  m.set("power.tick_share", "share", power_share);
  m.set("env.share", "share", base.env_ns / run_ns);
  m.set("fleet.unattributed_share", "share", 1.0 - sim_share - power_share);
  m.set("fleet.day_p50_ms", "ms", percentile(base.day_ms, 0.5));
  m.set("fleet.day_p90_ms", "ms", percentile(base.day_ms, 0.9));
  m.set("fleet.days", "count", double(base.day_ms.size()));
  if (ctx.scale == Scale::kFull) {
    m.set("trace.overhead_share", "share",
          overhead_share(traced.run_s, base.run_s));
  }
}

}  // namespace gw::perfbench
