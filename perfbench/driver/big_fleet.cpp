// Workload "big_fleet": a 4096-station ShardedFleet for one day, with
// shards = workers = nproc - 1. The same per-station layers as "season"
// plus the coordinator's drain/barrier: 2400 windows x 4096 worlds. The
// driver steps the windows from outside with the public
// sharded().run_until(now + latency()), which gives the same window grid,
// events and results as run_days.
//
// One core is left to the coordinator thread and the rest of the host: with
// nproc workers every barrier waits for whichever worker a neighbouring
// process has just preempted, and on a shared 4-vCPU host the day's time
// swung by a fifth between runs (nproc - 1: under a tenth, and no slower).
// Results do not depend on the shard or worker count.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fleet_support.h"
#include "station/sharded_fleet.h"
#include "util/crc32.h"
#include "workloads.h"

namespace gw::perfbench {
namespace {

// Digests of the full-scale day on kDefaultSeed: kernel events, and the CRC
// of the hub totals and rollup gauges (the canonical line run_once prints
// on a mismatch).
constexpr std::uint64_t kPinnedEvents = 6'329'792;
constexpr std::uint32_t kPinnedDigest = 0x45980245;

struct Shape {
  int stations;
  double days;
  int start_hour;
};

// The probe-scale world starts at 10:00, so its quarter day holds the
// 12:00 wake windows and their hub traffic.
Shape shape_of(Scale scale) {
  return scale == Scale::kFull ? Shape{4096, 1.0, 0} : Shape{256, 0.25, 10};
}

struct BigResult {
  double run_s = 0.0;
  std::vector<double> window_ms;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages_posted = 0;
  std::uint64_t messages_delivered = 0;
  double shard_imbalance = 1.0;
  double env_ns = 0.0;
  std::string canonical;  // hub totals + rollup gauges
  std::uint32_t digest = 0;
  std::vector<std::string> failures;
};

// Shards and workers: every core but one.
unsigned parallelism(const Context& ctx) {
  return std::max(1u, ctx.nproc - 1);
}

// How the day is advanced: run_days in one call, or window by window from
// outside (timed per window, and traced when the tracer is on).
enum class Drive { kRunDays, kStepWindows };

BigResult run_once(const Context& ctx, const Shape& shape, unsigned workers,
                   Drive drive, const LayerCosts& costs) {
  Tracer& tracer = *ctx.tracer;
  const std::uint32_t window_span = tracer.name("station.sharded.window");
  const std::uint32_t construct_span =
      tracer.name("station.sharded.construct");
  BigResult result;
  station::ShardedFleetConfig config;
  config.fleet = station::uniform_fleet_config(shape.stations, ctx.seed);
  config.fleet.start.hour = shape.start_hour;
  config.shards = parallelism(ctx);
  config.workers = workers;

  std::unique_ptr<station::ShardedFleet> fleet;
  {
    const Tracer::Span span(tracer, construct_span);
    fleet = std::make_unique<station::ShardedFleet>(config);
  }

  sim::ShardedSimulation& sharded = fleet->sharded();
  if (drive == Drive::kRunDays) {
    const std::int64_t start = now_ns();
    fleet->run_days(shape.days);
    result.run_s = seconds_since(start);
  } else {
    const sim::SimTime deadline = sharded.now() + sim::days(shape.days);
    result.window_ms.reserve(2400);
    while (sharded.now() < deadline) {
      const sim::SimTime until =
          std::min(sharded.now() + fleet->latency(), deadline);
      const std::int64_t start = now_ns();
      {
        const Tracer::Span span(tracer, window_span);
        sharded.run_until(until);
      }
      const double seconds = seconds_since(start);
      result.run_s += seconds;
      result.window_ms.push_back(seconds * 1e3);
    }
  }

  // Untimed verification.
  result.events = fleet->events_executed();
  result.windows = sharded.windows_run();
  result.messages_posted = sharded.messages_posted();
  result.messages_delivered = sharded.messages_delivered();
  std::uint64_t max_shard = 0;
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    max_shard = std::max(max_shard, sharded.shard(i).events_executed());
  }
  const double mean_shard =
      double(result.events) / double(sharded.shard_count());
  result.shard_imbalance = mean_shard > 0.0 ? double(max_shard) / mean_shard
                                            : 1.0;
  for (std::size_t i = 0; i < fleet->size(); ++i) {
    const std::uint64_t ticks =
        std::uint64_t(sim::days(shape.days).millis() /
                      fleet->station(i).power().tick_interval().millis());
    result.ticks += ticks;
    result.env_ns +=
        double(ticks) * env_ns_per_tick(config.fleet.stations[i], costs);
  }
  check_sharded(*fleet, result.failures);

  obs::MetricsRegistry& rollup = fleet->update_rollup();
  std::int64_t hub_bytes = 0;
  for (std::size_t i = 0; i < fleet->size(); ++i) {
    hub_bytes += fleet->hub().bytes_from(fleet->station(i).name()).count();
  }
  char line[512];
  std::snprintf(
      line, sizeof line,
      "events=%llu hub_files=%llu hub_bytes=%lld hub_beacons=%zu "
      "stations_up=%.17g groups_total=%.17g groups_converged=%.17g "
      "yield_bytes=%.17g probes_alive=%.17g",
      (unsigned long long)result.events,
      (unsigned long long)fleet->hub().files_received(), (long long)hub_bytes,
      fleet->hub().beacons().size(),
      rollup.gauge_value("fleet", "stations_up"),
      rollup.gauge_value("fleet", "groups_total"),
      rollup.gauge_value("fleet", "groups_converged"),
      rollup.gauge_value("fleet", "yield_bytes"),
      rollup.gauge_value("fleet", "probes_alive"));
  result.canonical = line;
  result.digest = util::crc32(result.canonical);
  return result;
}

}  // namespace

void run_big_fleet(const Context& ctx, const LayerCosts& costs,
                   Outcome& out) {
  const Shape shape = shape_of(ctx.scale);
  Tracer& tracer = *ctx.tracer;
  const bool tracing = tracer.enabled();
  const unsigned n = parallelism(ctx);
  const double station_days = double(shape.stations) * shape.days;

  // Set-up: building the world, timed five times before anything else runs
  // in the process, after one untimed build (a fresh heap and a core that
  // was idle a moment ago would make it read slow).
  std::vector<double> setup;
  for (int i = -1; !ctx.traced && i < 5; ++i) {
    const double scale = ctx.calibrate();
    station::ShardedFleetConfig config;
    config.fleet = station::uniform_fleet_config(shape.stations, ctx.seed);
    config.shards = n;
    config.workers = n;
    const std::int64_t start = now_ns();
    const station::ShardedFleet fleet{config};
    if (i >= 0) setup.push_back(seconds_since(start) * scale);
  }
  std::vector<BigResult> runs;
  if (!ctx.traced) {
    const int reps = ctx.repetitions(5.0);
    for (int rep = 0; rep < reps; ++rep) {
      runs.push_back(run_once(ctx, shape, n, Drive::kStepWindows, costs));
    }
  } else {
    // run_days at n workers (the overhead baseline), run_days at one worker
    // (speedup, and the 1-vs-n identity check), then the traced
    // window-by-window day at n workers.
    tracer.set_enabled(false);
    runs.push_back(run_once(ctx, shape, n, Drive::kRunDays, costs));
    runs.push_back(run_once(ctx, shape, 1, Drive::kRunDays, costs));
    tracer.set_enabled(tracing);
    runs.push_back(run_once(ctx, shape, n, Drive::kStepWindows, costs));
  }

  for (std::size_t rep = 0; rep < runs.size(); ++rep) {
    BigResult& run = runs[rep];
    out.attempted += std::uint64_t(station_days);
    if (run.digest != runs.front().digest) {
      run.failures.push_back("day " + std::to_string(rep) +
                             " differs from day 0 (workers or drive): " +
                             run.canonical + " vs " + runs.front().canonical);
    }
    if (ctx.pinned() &&
        (run.events != kPinnedEvents || run.digest != kPinnedDigest)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "pinned digest mismatch: %08x, expected ",
                    run.digest);
      run.failures.push_back(buf + std::to_string(kPinnedEvents) + " events " +
                             "digest " + std::to_string(kPinnedDigest) +
                             "; got " + run.canonical);
    }
    for (const std::string& why : run.failures) {
      out.fail(std::uint64_t(station_days), "big_fleet: " + why);
    }
  }
  std::printf("# big_fleet: %d stations x %.2f days, %u shards, digest %08x "
              "(%s)\n",
              shape.stations, shape.days, n, runs.front().digest,
              runs.front().canonical.c_str());

  if (!ctx.traced) {
    std::vector<std::vector<double>> window_us;
    for (const BigResult& run : runs) {
      window_us.emplace_back();
      for (const double ms : run.window_ms) {
        window_us.back().push_back(ms * 1e3);
      }
    }
    const std::vector<double> best = best_of(window_us);
    set_end_to_end(ctx, out, station_days, sum(best) * 1e-6, best, setup,
                   "station-days");
    return;
  }

  const BigResult& parallel = runs[0];
  const BigResult& serial = runs[1];
  const BigResult& traced = runs[2];
  MetricTable& m = out.metrics;
  const std::vector<double> windows =
      tracer.durations_ms("station.sharded.window");
  m.set("sharded.windows", "count", double(traced.windows));
  m.set("sharded.window_p50_ms", "ms", percentile(windows, 0.5));
  m.set("sharded.window_p99_ms", "ms", percentile(windows, 0.99));
  m.set("sharded.messages_posted", "count", double(traced.messages_posted));
  m.set("sharded.messages_delivered", "count",
        double(traced.messages_delivered));
  m.set("sharded.shard_event_imbalance", "ratio", traced.shard_imbalance);
  const double speedup =
      parallel.run_s > 0.0 ? serial.run_s / parallel.run_s : 1.0;
  m.set("sharded.speedup", "ratio", speedup);
  // Amdahl: with a serial fraction f, n workers give 1 / (f + (1 - f) / n).
  const double serial_share =
      n > 1 ? (double(n) / speedup - 1.0) / (double(n) - 1.0) : 1.0;
  m.set("sharded.serial_share", "share", serial_share);

  if (ctx.scale == Scale::kFull) {
    // The per-station layers, attributed against the one-worker day.
    const double run_ns = serial.run_s * 1e9;
    m.set("sim.events", "count", double(serial.events));
    m.set("sim.host_ns_per_event", "ns", run_ns / double(serial.events));
    m.set("power.ticks", "count", double(serial.ticks));
    const double sim_share = double(serial.events) * costs.dispatch_ns / run_ns;
    const double power_share = double(serial.ticks) * costs.tick_ns / run_ns;
    m.set("power.tick_share", "share", power_share);
    m.set("env.share", "share", serial.env_ns / run_ns);
    m.set("fleet.unattributed_share", "share", 1.0 - sim_share - power_share);
    m.set("trace.overhead_share", "share",
          overhead_share(traced.run_s, parallel.run_s));
  }
}

}  // namespace gw::perfbench
