// Micro-benchmarks (google-benchmark) for the library's hot kernels: the
// event queue that drives multi-year simulations, the MD5 used by the
// update pipeline, CRC32 framing checks, the battery integrator, a full
// NACK protocol session, and the two parallel layers (Monte Carlo runner
// scaling, sharded fleet days at 1/2/4 workers). These measure the
// *implementation*, not the paper; they exist so performance regressions in
// the substrate are visible. This is the only host-timed binary in bench/:
// every other bench reproduces the paper without reading a clock.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/environment.h"
#include "power/battery.h"
#include "proto/bulk_transfer.h"
#include "runner/monte_carlo_runner.h"
#include "sim/simulation.h"
#include "station/deployment.h"
#include "station/probe_node.h"
#include "station/sharded_fleet.h"
#include "util/crc32.h"
#include "util/md5.h"

namespace gw {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation simulation;
    for (int i = 0; i < int(state.range(0)); ++i) {
      simulation.schedule_at(sim::SimTime{(i * 7919) % 100000}, [] {});
    }
    simulation.run_all();
    benchmark::DoNotOptimize(simulation.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Md5Throughput(benchmark::State& state) {
  const std::string payload(std::size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Md5::digest(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(4096)->Arg(165 * 1024);

void BM_Crc32Throughput(benchmark::State& state) {
  const std::string payload(std::size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Throughput)->Arg(64)->Arg(165 * 1024);

void BM_BatteryTick(benchmark::State& state) {
  power::BatteryConfig config;
  power::LeadAcidBattery battery{config};
  for (auto _ : state) {
    battery.step(util::Amps{0.5}, util::Amps{0.3}, 1.0 / 60.0,
                 util::Celsius{-5.0});
    benchmark::DoNotOptimize(battery.soc());
    if (battery.empty()) battery.set_soc(0.9);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatteryTick);

void BM_NackSession(benchmark::State& state) {
  for (auto _ : state) {
    env::TemperatureModel temperature{env::TemperatureConfig{},
                                      util::Rng{1}};
    env::MeltModel melt{env::MeltConfig{}, util::Rng{2}};
    proto::ProbeLink link{melt, temperature, util::Rng{3}};
    proto::ProbeStore store;
    for (std::uint32_t seq = 0; seq < std::uint32_t(state.range(0)); ++seq) {
      proto::ProbeReading reading;
      reading.seq = seq;
      store.add(reading);
    }
    proto::NackBulkTransfer protocol{link};
    const auto stats = protocol.run(store, sim::at_midnight(2009, 7, 20),
                                    sim::hours(12));
    benchmark::DoNotOptimize(stats.delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NackSession)->Arg(3000);

void BM_DeploymentDay(benchmark::State& state) {
  // Cost of simulating one full two-station deployment day.
  for (auto _ : state) {
    state.PauseTiming();
    station::DeploymentConfig config;
    config.trace_enabled = false;
    station::Deployment deployment{config};
    state.ResumeTiming();
    deployment.run_days(1.0);
    benchmark::DoNotOptimize(deployment.base().stats().runs_completed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeploymentDay)->Unit(benchmark::kMillisecond);

// One isolated probe-survival world, sized so a trial is a few thousand
// kernel events: 7 probes sampling 4x/day across two years.
std::uint64_t survival_trial(std::size_t trial) {
  const sim::SimTime deployed = sim::at_midnight(2008, 9, 1);
  sim::Simulation simulation{deployed};
  env::Environment environment{7};
  const util::Rng trial_rng =
      util::Rng{2008}.fork("throughput-trial-" + std::to_string(trial));
  std::vector<std::unique_ptr<station::ProbeNode>> probes;
  for (int i = 0; i < 7; ++i) {
    station::ProbeNodeConfig config;
    config.probe_id = 20 + i;
    config.sample_interval = sim::hours(6);
    probes.push_back(std::make_unique<station::ProbeNode>(
        simulation, environment,
        trial_rng.fork("probe-" + std::to_string(config.probe_id)), config));
  }
  simulation.run_until(deployed + sim::days(730));
  return simulation.events_executed();
}

void BM_RunnerProbeSurvival(benchmark::State& state) {
  // MonteCarloRunner scaling: 64 isolated worlds per iteration on a pool of
  // range(0) threads. Speedup is the ratio of items/s across the args.
  constexpr std::size_t kTrials = 64;
  runner::MonteCarloRunner pool{unsigned(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.run(kTrials, survival_trial));
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kTrials));
}
BENCHMARK(BM_RunnerProbeSurvival)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardedFleetDay(benchmark::State& state) {
  // One simulated day of bench_fleet_scale's 1024-station world (seed base
  // 42000, 4 shards), advanced by range(0) workers. Construction and
  // teardown are untimed.
  constexpr int kStations = 1024;
  station::ShardedFleetConfig config;
  config.fleet = station::uniform_fleet_config(kStations, 42000 + kStations);
  config.shards = 4;
  config.workers = unsigned(state.range(0));
  std::unique_ptr<station::ShardedFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    fleet = std::make_unique<station::ShardedFleet>(config);
    state.ResumeTiming();
    fleet->run_days(1.0);
    benchmark::DoNotOptimize(fleet->events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kStations);
}
BENCHMARK(BM_ShardedFleetDay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gw

BENCHMARK_MAIN();
