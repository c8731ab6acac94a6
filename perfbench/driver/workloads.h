// The four workloads and the isolated layer probes.
//
// Every workload runs in one of two modes:
//   * timed (--trace 0): tracing off; reports the end-to-end metrics;
//   * traced (--trace 1): the same work once untraced and once with spans
//     on; reports the per-layer metrics it owns plus
//     trace.overhead_share.
// and at one of two scales: full (the workload as documented in
// perfbench/METRICS.md) or probe (a small world through the same code,
// which a traced run of another workload uses to report this workload's
// layers). Pinned digests are checked at full scale on the default seed;
// the seed-independent invariants are checked on every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace gw::perfbench {

// The seed the pinned digests were recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

enum class Scale { kFull, kProbe };

struct Context {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  Scale scale = Scale::kFull;
  unsigned nproc = 1;
  Tracer* tracer = nullptr;
  // Timed runs sample the host's speed between set-ups (all workloads) and
  // between steps (the single-threaded ones); null when traced.
  HostSpeed* speed = nullptr;

  // Samples the host's speed and returns the factor that puts durations
  // measured next at nominal host speed (1 when not calibrating).
  [[nodiscard]] double calibrate() const {
    return speed != nullptr ? speed->sample() : 1.0;
  }

  [[nodiscard]] bool pinned() const {
    return scale == Scale::kFull && seed == kDefaultSeed;
  }
  // Repetitions of a unit of work that takes about `nominal_seconds` on the
  // reference host, so a run lasts about `seconds`. Fixed by the arguments
  // alone: the same command always does the same work.
  [[nodiscard]] int repetitions(double nominal_seconds) const;
};

// Hot-cache costs of single layer calls, measured in isolation. Shares
// derived from them (count x cost / wall) are estimates.
struct LayerCosts {
  double dispatch_ns = 0.0;     // sim::Simulation schedule + dispatch
  double tick_ns = 0.0;         // power::PowerSystem::tick, base wiring
  double air_ns = 0.0;          // env TemperatureModel::air
  double irradiance_ns = 0.0;   // env SolarModel::irradiance
  double wind_speed_ns = 0.0;   // env WindModel::speed
  double to_datetime_ns = 0.0;  // sim::to_datetime
};

// Runs every isolated probe (kernel dispatch, power tick, env draws,
// calendar conversion, Form codec) and records their metrics.
LayerCosts run_probes(std::uint64_t seed, MetricTable& metrics);

void run_season(const Context& ctx, const LayerCosts& costs, Outcome& out);
void run_big_fleet(const Context& ctx, const LayerCosts& costs, Outcome& out);
void run_fork_campaign(const Context& ctx, Outcome& out);
void run_server_mix(const Context& ctx, Outcome& out);

// --- shared helpers ----------------------------------------------------------

// Element-wise minimum over repetitions of the same sequence of steps:
// each step's best time. Every repetition of a timed run replays the same
// steps on the same inputs, so a step's best time is its cost with the
// least interference from the rest of the host.
[[nodiscard]] std::vector<double> best_of(
    const std::vector<std::vector<double>>& repetitions);

[[nodiscard]] inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// The end-to-end metrics every timed run reports: `units` of work done in
// `seconds` (one repetition, best times), the median and tail of the best
// step times, the median set-up time. Every duration is already at nominal
// host speed (Context::calibrate). main() adds the peak memory.
void set_end_to_end(const Context& ctx, Outcome& out, double units,
                    double seconds, const std::vector<double>& step_us,
                    const std::vector<double>& setup_seconds,
                    const char* unit_name);

// (traced - untraced) / untraced.
[[nodiscard]] inline double overhead_share(double traced_s,
                                           double untraced_s) {
  return untraced_s > 0.0 ? (traced_s - untraced_s) / untraced_s : 0.0;
}

}  // namespace gw::perfbench
