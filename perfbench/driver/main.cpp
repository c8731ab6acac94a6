// perfbench: the repository benchmark driver.
//
//   perfbench --workload <season|big_fleet|fork_campaign|server_mix>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//   perfbench --list-metrics
//
// Prints a build/host stamp and one "# ..." line per workload, then, as
// the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (and writes the spans
// as Chrome trace-event JSON to --trace-out, when given). Exit status: 0
// when every unit of work passed its checks, 1 when one failed, 2 on bad
// arguments, 3 when the build is not one that may be timed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace gw::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

// The end-to-end metrics: every timed run reports all of them.
const std::vector<MetricSpec> kEndToEnd{
    {"throughput_per_s", "1/s", "higher"},
    {"step_p50_us", "us", "lower"},
    {"step_tail_us", "us", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

// The per-layer metrics: every traced run reports all of them
// (perfbench/METRICS.md says which workload each comes from).
const std::vector<MetricSpec> kPerLayer{
    {"sim.events", "count", "lower"},
    {"sim.host_ns_per_event", "ns", "lower"},
    {"sim.dispatch_ns", "ns", "lower"},
    {"sim.to_datetime_ns", "ns", "lower"},
    {"power.ticks", "count", "lower"},
    {"power.tick_ns", "ns", "lower"},
    {"power.tick_share", "share", "lower"},
    {"env.air_ns", "ns", "lower"},
    {"env.irradiance_ns", "ns", "lower"},
    {"env.wind_speed_ns", "ns", "lower"},
    {"env.share", "share", "lower"},
    {"fleet.day_p50_ms", "ms", "lower"},
    {"fleet.day_p90_ms", "ms", "lower"},
    {"fleet.days", "count", "higher"},
    {"fleet.unattributed_share", "share", "lower"},
    {"fleet.construct_p50_ms", "ms", "lower"},
    {"sharded.windows", "count", "lower"},
    {"sharded.window_p50_ms", "ms", "lower"},
    {"sharded.window_p99_ms", "ms", "lower"},
    {"sharded.messages_posted", "count", "lower"},
    {"sharded.messages_delivered", "count", "lower"},
    {"sharded.shard_event_imbalance", "ratio", "lower"},
    {"sharded.speedup", "ratio", "higher"},
    {"sharded.serial_share", "share", "lower"},
    {"snapshot.bytes", "bytes", "lower"},
    {"snapshot.save_ms", "ms", "lower"},
    {"snapshot.validate_ms", "ms", "lower"},
    {"snapshot.restore_p50_ms", "ms", "lower"},
    {"snapshot.restore_p95_ms", "ms", "lower"},
    {"snapshot.restores", "count", "higher"},
    {"runner.warm_s", "s", "lower"},
    {"runner.branch_p50_ms", "ms", "lower"},
    {"runner.busy_share", "share", "higher"},
    {"server.stats_query_p50_us", "us", "lower"},
    {"server.stats_query_p99_us", "us", "lower"},
    {"server.group_query_p50_us", "us", "lower"},
    {"server.group_query_p99_us", "us", "lower"},
    {"server.directory_query_p50_us", "us", "lower"},
    {"server.directory_query_p99_us", "us", "lower"},
    {"server.corrupt_query_p50_us", "us", "lower"},
    {"server.corrupt_query_p99_us", "us", "lower"},
    {"server.file_ingest_p99_us", "us", "lower"},
    {"server.report_ingest_p99_us", "us", "lower"},
    {"server.beacon_ingest_p99_us", "us", "lower"},
    {"server.queue_ingest_p99_us", "us", "lower"},
    {"server.compact_p50_ms", "ms", "lower"},
    {"server.queries_served", "count", "higher"},
    {"server.queries_refused", "count", "lower"},
    {"server.ingest_rejected", "count", "lower"},
    {"server.future_reports_ignored", "count", "lower"},
    {"proto.stats_encode_ns", "ns", "lower"},
    {"proto.stats_decode_ns", "ns", "lower"},
    {"proto.group_encode_ns", "ns", "lower"},
    {"proto.group_decode_ns", "ns", "lower"},
    {"proto.directory_encode_ns", "ns", "lower"},
    {"proto.directory_decode_ns", "ns", "lower"},
    {"trace.overhead_share", "share", "lower"},
};

const std::vector<std::string> kWorkloads{"season", "big_fleet",
                                          "fork_campaign", "server_mix"};

void run_workload(const std::string& name, const Context& ctx,
                  const LayerCosts& costs, Outcome& out) {
  if (name == "season") {
    run_season(ctx, costs, out);
  } else if (name == "big_fleet") {
    run_big_fleet(ctx, costs, out);
  } else if (name == "fork_campaign") {
    run_fork_campaign(ctx, out);
  } else {
    run_server_mix(ctx, out);
  }
}

// Every metric of the mode's catalogue, and nothing else, with its unit.
void check_catalogue(const std::vector<MetricSpec>& catalogue,
                     Outcome& out) {
  std::set<std::string> expected;
  for (const MetricSpec& spec : catalogue) {
    expected.insert(spec.name);
    const auto it = out.metrics.all().find(spec.name);
    if (it == out.metrics.all().end()) {
      out.fail(0, std::string("metric ") + spec.name + " was not reported");
    } else if (it->second.unit != spec.unit) {
      out.fail(0, std::string("metric ") + spec.name + " has unit " +
                      it->second.unit + ", expected " + spec.unit);
    }
  }
  for (const auto& [name, metric] : out.metrics.all()) {
    if (expected.count(name) == 0) {
      out.fail(0, "metric " + name + " is not in the catalogue");
    }
  }
}

void list_metrics() {
  const auto print = [](const char* key,
                        const std::vector<MetricSpec>& catalogue) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  i == 0 ? "" : ", ", catalogue[i].name, catalogue[i].unit,
                  catalogue[i].better);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", kWorkloads[i].c_str());
  }
  std::printf("], ");
  print("end_to_end", kEndToEnd);
  std::printf(", ");
  print("per_layer", kPerLayer);
  std::printf("}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<season|big_fleet|fork_campaign|server_mix> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& value) {
  char* end = nullptr;
  value = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

// Runs the chosen mode: the probes, probe-scale passes and traced full
// pass (--trace 1), or the timed workload (--trace 0).
void run_mode(const std::string& workload, const std::string& trace_out,
              const HostStamp& stamp, Context ctx, Outcome& out) {
  Tracer tracer{ctx.traced};
  ctx.tracer = &tracer;
  if (ctx.traced) {
    // Isolated probes first, then every other workload at probe scale
    // (for the layers this workload does not run), then this workload at
    // full scale, whose metrics take precedence.
    const LayerCosts costs = run_probes(ctx.seed, out.metrics);
    for (const std::string& other : kWorkloads) {
      if (other == workload) continue;
      Context probe = ctx;
      probe.scale = Scale::kProbe;
      run_workload(other, probe, costs, out);
    }
    run_workload(workload, ctx, costs, out);
    check_catalogue(kPerLayer, out);
    if (!trace_out.empty()) {
      const bool written = tracer.write_chrome_json(
          trace_out, {{"workload", workload},
                      {"seed", std::to_string(ctx.seed)},
                      {"compiler", stamp.compiler},
                      {"build_type", stamp.build_type},
                      {"nproc", std::to_string(stamp.nproc)}});
      std::printf("# trace: %zu spans -> %s%s\n", tracer.span_count(),
                  trace_out.c_str(), written ? "" : " (NOT WRITTEN)");
      if (!written) out.fail(0, "could not write " + trace_out);
    }
  } else {
    HostSpeed speed;
    ctx.speed = &speed;
    run_workload(workload, ctx, LayerCosts{}, out);
    out.metrics.set("peak_rss_mb", "MB", peak_rss_mb());
    check_catalogue(kEndToEnd, out);
  }
}

}  // namespace

int Context::repetitions(double nominal_seconds) const {
  return std::max(1, int(std::lround(seconds / nominal_seconds)));
}

std::vector<double> best_of(
    const std::vector<std::vector<double>>& repetitions) {
  std::vector<double> best;
  for (const std::vector<double>& steps : repetitions) {
    if (best.empty()) {
      best = steps;
      continue;
    }
    for (std::size_t i = 0; i < best.size() && i < steps.size(); ++i) {
      best[i] = std::min(best[i], steps[i]);
    }
  }
  return best;
}

void set_end_to_end(const Context& ctx, Outcome& out, double units,
                    double seconds, const std::vector<double>& step_us,
                    const std::vector<double>& setup_seconds,
                    const char* unit_name) {
  const Tail step = summarize(step_us);
  const double setup = median(setup_seconds);
  std::printf("# %.0f %s in %.3f s (best of repetitions): %.2f %s/s; "
              "step p50 %.1f us, p%g %.1f us over %zu steps; setup median "
              "%.6f s over %zu\n",
              units, unit_name, seconds, units / seconds, unit_name, step.p50,
              step.tail_p * 100.0, step.tail, step.samples, setup,
              setup_seconds.size());
  if (ctx.speed != nullptr) {
    std::printf("# host speed: calibration loop median %.4f ms over %zu "
                "samples (nominal %.2f ms)\n",
                ctx.speed->median_ms(), ctx.speed->samples(),
                HostSpeed::kNominalMs);
  }
  out.metrics.set("throughput_per_s", "1/s", units / seconds);
  out.metrics.set("step_p50_us", "us", step.p50);
  out.metrics.set("step_tail_us", "us", step.tail);
  out.metrics.set("setup_s", "s", setup);
}

}  // namespace gw::perfbench

int main(int argc, char** argv) {
  using namespace gw::perfbench;
  std::string workload;
  std::string trace_out;
  Context ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && parse_u64(value, number)) {
      ctx.seed = number;
    } else if (arg == "--seconds" && parse_u64(value, number) && number > 0) {
      ctx.seconds = double(number);
    } else if (arg == "--trace" && (std::strcmp(value, "0") == 0 ||
                                    std::strcmp(value, "1") == 0)) {
      ctx.traced = value[0] == '1';
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : kWorkloads) known = known || name == workload;
  if (!known) return usage(("unknown workload '" + workload + "'").c_str());

  const HostStamp stamp = host_stamp();
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), (unsigned long long)ctx.seed, ctx.seconds,
              ctx.traced ? 1 : 0);
  std::printf("# host: compiler=\"%s\" build_type=%s optimized=%d "
              "sanitized=%d nproc=%u loadavg=%.2f\n",
              stamp.compiler.c_str(), stamp.build_type.c_str(),
              stamp.optimized ? 1 : 0, stamp.sanitized ? 1 : 0, stamp.nproc,
              stamp.load_average);
  std::fflush(stdout);
  if (!stamp.optimized || stamp.sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimised or sanitizer "
                 "build (build as RelWithDebInfo)\n");
    return 3;
  }

  ctx.nproc = stamp.nproc;
  Outcome out;
  try {
    run_mode(workload, trace_out, stamp, ctx, out);
  } catch (const std::exception& error) {
    // A workload that throws (a snapshot that will not load, a fault plan
    // that will not parse) has failed every unit it attempted.
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.fail(out.attempted - out.failed,
             std::string("uncaught exception: ") + error.what());
  }

  for (const std::string& why : out.failures) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  for (const std::string& why : out.metrics.errors()) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  std::printf("%s\n", result_json(out).c_str());
  std::fflush(stdout);
  return exit_code(out);
}
