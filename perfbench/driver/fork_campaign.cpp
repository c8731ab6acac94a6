// Workload "fork_campaign": warm a 64-station faulted world to day 20 +
// 17 min and save it once, then run short config-side policy branches
// (Table 2 thresholds x Gumstix DVFS plans, as bench_energy_breakdown does)
// on MonteCarloRunner::run_forked with nproc - 1 threads (one core is left
// to the rest of the host, as in big_fleet). Each branch restores
// into a fresh Fleet and runs through the next wake window. Snapshot
// restore and world construction take a large share here, so this is the
// workload that measures the snapshot and runner layers.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/power_policy.h"
#include "fleet_support.h"
#include "runner/monte_carlo_runner.h"
#include "snapshot/state_writer.h"
#include "station/fleet.h"
#include "util/crc32.h"
#include "workloads.h"

namespace gw::perfbench {
namespace {

// bench_energy_breakdown's branched adversarial season (docs/ENERGY.md).
constexpr const char* kSeasonSpec =
    "gprs_outage      start=5d  duration=7d  severity=1.0\n"
    "dgps_no_fix      start=14d duration=2d  severity=0.9\n"
    "cf_write_fail    start=16d duration=1d  severity=0.3\n"
    "server_down      start=18d duration=12h\n"
    "harvest_blackout start=25d duration=8d  severity=1.0\n";

// CRC over the nine per-combination branch digests of the full-scale
// campaign on kDefaultSeed.
constexpr std::uint32_t kPinnedDigest = 0x4ba0faf2;

constexpr std::size_t kCombos = 9;  // 3 threshold sets x 3 DVFS plans

struct Shape {
  int stations;
  int warm_days;
  std::size_t branches;  // a multiple of kCombos
};

Shape shape_of(Scale scale) {
  return scale == Scale::kFull ? Shape{64, 20, 108} : Shape{8, 2, 18};
}

// The warm prefix ends at the first quiescent minute from day N + 17 min
// on (off the 12:00 + i min wake windows; a dGPS reading may still be in
// flight, see save_when_quiescent). Each branch then runs through the
// next wake windows.
sim::Duration checkpoint_offset(const Shape& shape) {
  return sim::days(shape.warm_days) + sim::minutes(17);
}
constexpr sim::Duration kBranchLength = sim::hours(14);

core::PowerPolicyConfig thresholds(std::size_t index) {
  core::PowerPolicyConfig policy;  // Table 2 as published
  if (index == 1) {                // cautious
    policy.state3_threshold = util::Volts{12.8};
    policy.state2_threshold = util::Volts{12.4};
    policy.state1_threshold = util::Volts{12.0};
  } else if (index == 2) {  // eager
    policy.state3_threshold = util::Volts{12.2};
    policy.state2_threshold = util::Volts{11.7};
    policy.state1_threshold = util::Volts{11.3};
  }
  return policy;
}

// Operating point per Table 2 state: always 400 MHz, stepped, always
// 200 MHz.
constexpr std::array<std::array<int, 4>, 3> kFrequencyPlans{{
    {-1, -1, -1, -1},
    {0, 1, 1, -1},
    {0, 0, 0, 0},
}};

station::FleetConfig campaign_config(const Shape& shape, std::uint64_t seed,
                                     std::size_t combo) {
  station::FleetConfig config =
      station::uniform_fleet_config(shape.stations, seed);
  config.fault_spec = kSeasonSpec;
  for (station::StationSpec& spec : config.stations) {
    spec.station.policy = thresholds(combo / 3);
    spec.station.gumstix_freq_by_state = kFrequencyPlans[combo % 3];
  }
  return config;
}

struct Branch {
  double total_ms = 0.0;
  std::uint32_t digest = 0;
  std::vector<std::string> failures;
};

// A digest of what a branch computed: per-station run and energy books,
// state and battery, plus the server's totals.
std::uint32_t branch_digest(station::Fleet& fleet) {
  std::string text;
  char buf[256];
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    station::Station& s = fleet.station(i);
    const auto& stats = s.stats();
    std::snprintf(buf, sizeof buf, "%s %d %d %d %d %d %lld %lld %.17g;",
                  s.name().c_str(), stats.runs_completed, stats.brown_outs,
                  stats.cold_boots, stats.gps_files_fetched,
                  int(s.current_state()),
                  (long long)s.power().delivered_microjoules(),
                  (long long)s.power().absorbed_microjoules(),
                  s.power().battery().soc());
    text += buf;
  }
  text += std::to_string(fleet.server().files_received()) + " " +
          std::to_string(fleet.simulation().events_executed());
  return util::crc32(text);
}

struct Campaign {
  double total_s = 0.0;
  double warm_s = 0.0;
  double save_ms = 0.0;
  std::vector<std::uint8_t> snapshot;  // a copy of the shared prefix
  std::vector<Branch> branches;
};

Campaign run_campaign(const Shape& shape, std::uint64_t seed,
                      runner::MonteCarloRunner& pool, Tracer& tracer) {
  const std::uint32_t warm_span = tracer.name("runner.warm");
  const std::uint32_t save_span = tracer.name("snapshot.save");
  const std::uint32_t branch_span = tracer.name("runner.branch");
  const std::uint32_t construct_span = tracer.name("station.fleet.construct");
  const std::uint32_t restore_span = tracer.name("snapshot.restore");
  const std::uint32_t run_span = tracer.name("station.fleet.branch_run");

  Campaign campaign;
  const std::int64_t start = now_ns();
  campaign.branches = pool.run_forked(
      shape.branches,
      [&] {
        const Tracer::Span span(tracer, warm_span);
        station::Fleet fleet{campaign_config(shape, seed, 0)};
        fleet.simulation().run_until(fleet.simulation().now() +
                                     checkpoint_offset(shape));
        const std::int64_t save_start = now_ns();
        std::vector<std::uint8_t> bytes;
        {
          const Tracer::Span save(tracer, save_span);
          bytes = save_when_quiescent(fleet);
        }
        campaign.save_ms = seconds_since(save_start) * 1e3;
        campaign.snapshot = bytes;
        campaign.warm_s = seconds_since(start);
        return bytes;
      },
      [&](std::size_t trial, const std::vector<std::uint8_t>& bytes) {
        const std::int64_t branch_start = now_ns();
        Branch branch;
        std::unique_ptr<station::Fleet> fleet;
        {
          const Tracer::Span span(tracer, branch_span);
          {
            const Tracer::Span construct(tracer, construct_span);
            fleet = std::make_unique<station::Fleet>(
                campaign_config(shape, seed, trial % kCombos));
          }
          {
            const Tracer::Span restore(tracer, restore_span);
            fleet->restore_snapshot(bytes);
          }
          const Tracer::Span run(tracer, run_span);
          fleet->simulation().run_until(fleet->simulation().now() +
                                        kBranchLength);
        }
        branch.total_ms = seconds_since(branch_start) * 1e3;
        check_fleet(*fleet, branch.failures);
        branch.digest = branch_digest(*fleet);
        return branch;
      });
  campaign.total_s = seconds_since(start);
  return campaign;
}

}  // namespace

void run_fork_campaign(const Context& ctx, Outcome& out) {
  const Shape shape = shape_of(ctx.scale);
  Tracer& tracer = *ctx.tracer;
  const bool tracing = tracer.enabled();
  // Every core but one: with nproc threads a neighbouring process that
  // preempts one branch holds up the end of the campaign, and the
  // ten-seed spread of the campaign time reached a quarter.
  runner::MonteCarloRunner pool{std::max(1u, ctx.nproc - 1)};

  // Set-up: building the world the campaign warms, timed 21 times before
  // anything else runs in the process. The first three are not timed: a
  // fresh heap and a core that was idle a moment ago would make them read
  // slow.
  std::vector<double> setup;
  for (int i = -3; !ctx.traced && i < 21; ++i) {
    const double scale = ctx.calibrate();
    const std::int64_t start = now_ns();
    const station::Fleet fleet{campaign_config(shape, ctx.seed, 0)};
    if (i >= 0) setup.push_back(seconds_since(start) * scale);
  }

  // Timed: whole campaigns, tracing off. Traced at full scale: one
  // untraced campaign (the overhead baseline), then two traced ones, so
  // there are enough restores for a 95th percentile. Probe scale: one
  // traced campaign.
  const int reps = !ctx.traced ? ctx.repetitions(4.0)
                   : ctx.scale == Scale::kFull ? 3
                                               : 1;
  std::vector<Campaign> campaigns;
  for (int rep = 0; rep < reps; ++rep) {
    const bool trace_this =
        tracing && (ctx.scale == Scale::kProbe || rep >= 1);
    tracer.set_enabled(trace_this);
    campaigns.push_back(run_campaign(shape, ctx.seed, pool, tracer));
    tracer.set_enabled(tracing);
  }

  // Every replica of a combination must agree with the first one, in
  // every campaign; the nine digests are pinned on the default seed.
  std::array<std::uint32_t, kCombos> combo_digest{};
  for (std::size_t c = 0; c < kCombos; ++c) {
    combo_digest[c] = campaigns.front().branches[c].digest;
  }
  const std::uint32_t digest = util::crc32(std::string_view(
      reinterpret_cast<const char*>(combo_digest.data()),
      sizeof combo_digest));
  const bool pinned_mismatch = ctx.pinned() && digest != kPinnedDigest;
  for (Campaign& campaign : campaigns) {
    out.attempted += campaign.branches.size();
    if (pinned_mismatch) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "fork_campaign: pinned digest mismatch: %08x, expected "
                    "%08x",
                    digest, kPinnedDigest);
      out.fail(campaign.branches.size(), buf);
      continue;
    }
    for (std::size_t t = 0; t < campaign.branches.size(); ++t) {
      Branch& branch = campaign.branches[t];
      if (branch.digest != combo_digest[t % kCombos]) {
        branch.failures.push_back("branch " + std::to_string(t) +
                                  " differs from its first replica");
      }
      if (!branch.failures.empty()) {
        out.fail(1, "fork_campaign: " + branch.failures.front());
      }
    }
  }
  std::printf("# fork_campaign: %d stations, %zu branches x %d campaigns, "
              "snapshot %zu bytes, digest %08x\n",
              shape.stations, shape.branches, reps,
              campaigns.front().snapshot.size(), digest);

  if (!ctx.traced) {
    std::vector<std::vector<double>> branch_us;
    std::vector<double> campaign_s;
    for (const Campaign& campaign : campaigns) {
      campaign_s.push_back(campaign.total_s);
      branch_us.emplace_back();
      for (const Branch& branch : campaign.branches) {
        branch_us.back().push_back(branch.total_ms * 1e3);
      }
    }
    // Branches overlap on the pool, so the campaign is timed as a whole:
    // its best time over the repetitions.
    set_end_to_end(ctx, out, double(shape.branches),
                   *std::min_element(campaign_s.begin(), campaign_s.end()),
                   best_of(branch_us), setup, "branches");
    return;
  }

  MetricTable& m = out.metrics;
  const std::vector<std::uint8_t>& snapshot = campaigns.back().snapshot;
  std::vector<double> validate_ms;
  for (int i = 0; i < 9; ++i) {
    const std::int64_t start = now_ns();
    const snapshot::StateReader reader{snapshot};
    validate_ms.push_back(seconds_since(start) * 1e3);
  }
  std::vector<double> save_ms;
  std::vector<double> warm_s;
  for (std::size_t rep = ctx.scale == Scale::kFull ? 1 : 0;
       rep < campaigns.size(); ++rep) {
    save_ms.push_back(campaigns[rep].save_ms);
    warm_s.push_back(campaigns[rep].warm_s);
  }
  const std::vector<double> restores = tracer.durations_ms("snapshot.restore");
  const std::vector<double> branches = tracer.durations_ms("runner.branch");
  m.set("snapshot.bytes", "bytes", double(snapshot.size()));
  m.set("snapshot.save_ms", "ms", median(save_ms));
  m.set("snapshot.validate_ms", "ms", median(validate_ms));
  m.set("snapshot.restore_p50_ms", "ms", percentile(restores, 0.5));
  m.set("snapshot.restore_p95_ms", "ms", percentile(restores, 0.95));
  m.set("snapshot.restores", "count", double(restores.size()));
  m.set("fleet.construct_p50_ms", "ms",
        median(tracer.durations_ms("station.fleet.construct")));
  m.set("runner.warm_s", "s", median(warm_s));
  m.set("runner.branch_p50_ms", "ms", median(branches));
  double busy_ms = 0.0;
  for (const double ms : branches) busy_ms += ms;
  double phase_s = 0.0;
  for (std::size_t rep = ctx.scale == Scale::kFull ? 1 : 0;
       rep < campaigns.size(); ++rep) {
    phase_s += campaigns[rep].total_s - campaigns[rep].warm_s;
  }
  m.set("runner.busy_share", "share",
        busy_ms * 1e-3 / (double(pool.threads()) * phase_s));
  if (ctx.scale == Scale::kFull) {
    double traced_s = 0.0;
    for (std::size_t rep = 1; rep < campaigns.size(); ++rep) {
      traced_s += campaigns[rep].total_s;
    }
    traced_s /= double(campaigns.size() - 1);
    m.set("trace.overhead_share", "share",
          overhead_share(traced_s, campaigns.front().total_s));
  }
}

}  // namespace gw::perfbench
