#include "station/sharded_fleet.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace gw::station {

sim::Duration derive_fleet_lookahead(const FleetConfig& config) {
  // The fastest cross-boundary interaction is a report landing in
  // Southampton: no station can influence another before its GPRS session
  // has even registered. One extra second stands in for the first byte of
  // transfer — generous lookahead only costs window length, never
  // correctness.
  if (config.stations.empty()) return sim::minutes(1);
  sim::Duration min_registration =
      config.stations.front().station.gprs.registration_time;
  for (const StationSpec& spec : config.stations) {
    min_registration =
        std::min(min_registration, spec.station.gprs.registration_time);
  }
  if (min_registration <= sim::Duration{0}) {
    min_registration = sim::seconds(1);
  }
  return min_registration + sim::seconds(1);
}

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : config_(std::move(config)) {
  FleetConfig& fleet = config_.fleet;
  if (config_.latency <= sim::Duration{0}) {
    config_.latency = derive_fleet_lookahead(fleet);
  }

  // Partition: distinct groups in spec-appearance order, round-robined
  // over shards; an ungrouped station forms a singleton group keyed by its
  // own (unique) name. Appearance order is configuration, so the
  // assignment never depends on thread scheduling.
  std::map<std::string, std::size_t> group_slot;
  std::size_t distinct_groups = 0;
  for (const StationSpec& spec : fleet.stations) {
    const std::string key = spec.sync_group.empty()
                                ? "~solo:" + spec.station.name
                                : spec.sync_group;
    if (group_slot.emplace(key, distinct_groups).second) ++distinct_groups;
  }
  if (distinct_groups == 0) distinct_groups = 1;
  const std::size_t shard_count =
      std::clamp<std::size_t>(config_.shards, 1, distinct_groups);

  sim::ShardedConfig sharded_config;
  sharded_config.shards = shard_count;
  sharded_config.workers = config_.workers;
  sharded_config.lookahead = config_.latency;
  sharded_config.start = sim::to_time(fleet.start);
  sharded_ = std::make_unique<sim::ShardedSimulation>(sharded_config);

  const std::optional<fault::FaultPlan> plan =
      assembly::parse_fault_plan(fleet, "ShardedFleet");

  hub_.set_received_window(fleet.server_received_window);
  // Hub-side anomaly journal (ingest_rejected, future_report) mirrors the
  // serial Fleet wiring; honest seasons record nothing here. The replicas
  // stay uninstrumented — their ledgers drain into the hub anyway.
  hub_.set_hooks(rollup_.hooks());

  const util::Rng rng{fleet.seed};

  // Pass 1: one world per station, on its group's shard. The replica
  // server mirrors the serial wiring (oracle, sync groups) but owns only
  // this station's traffic; its report log feeds the barrier drains.
  // Every world starts marked, so the first drain is a full scan.
  dirty_.resize(shard_count);
  worlds_.reserve(fleet.stations.size());
  for (const StationSpec& spec : fleet.stations) {
    auto world = std::make_unique<World>();
    const std::string key = spec.sync_group.empty()
                                ? "~solo:" + spec.station.name
                                : spec.sync_group;
    world->shard = group_slot.at(key) % shard_count;
    world->environment =
        std::make_unique<env::Environment>(fleet.environment, fleet.seed);
    world->server = std::make_unique<SouthamptonServer>();
    world->server->sync().enable_report_log();
    world->outbox.attach(dirty_[world->shard], worlds_.size());
    world->server->set_outbox_mark(&world->outbox);
    if (plan.has_value()) {
      world->oracle = std::make_unique<fault::FaultOracle>(
          *plan, sim::to_time(fleet.start));
      world->oracle->set_hooks(
          obs::Hooks{&world->fault_metrics, &world->fault_journal});
      world->server->set_fault_oracle(world->oracle.get());
    }
    world->station = assembly::build_station(
        sharded_->shard(world->shard), *world->environment, *world->server,
        rng, spec, world->oracle.get());
    rollup_.add_station(*world->station, spec.sync_group, world->probes);
    worlds_.push_back(std::move(world));
  }

  // Group wiring: every replica knows its whole group's membership (the
  // min-rule runs over the replica ledger), and every world lists its
  // peers for the report relay.
  for (const auto& [group, members] : rollup_.groups()) {
    for (const std::size_t member : members) {
      World& world = *worlds_[member];
      for (const std::size_t other : members) {
        world.server->sync().assign_group(
            worlds_[other]->station->name(), group);
        if (other != member) world.peers.push_back(other);
      }
    }
  }

  // Pass 2: probes, on their station's shard and environment replica.
  for (std::size_t s = 0; s < worlds_.size(); ++s) {
    World& world = *worlds_[s];
    world.probes = assembly::build_probes(
        sharded_->shard(world.shard), *world.environment, rng, fleet,
        fleet.stations[s], *world.station);
  }

  for (auto& world : worlds_) world->station->start();

  if (fleet.trace_enabled) {
    for (std::size_t s = 0; s < worlds_.size(); ++s) sample_trace(s);
  }

  sharded_->set_barrier_hook(
      [this](sim::SimTime barrier) { drain(barrier); });
}

void ShardedFleet::run_days(double days) {
  sharded_->run_until(sharded_->now() + sim::days(days));
}

std::size_t ShardedFleet::index_of(const std::string& station_name) const {
  if (const auto index = rollup_.find(station_name)) return *index;
  throw std::invalid_argument("ShardedFleet: unknown station " +
                              station_name);
}

bool ShardedFleet::queue_special(const std::string& station_name,
                                 core::SpecialCommand command) {
  return worlds_[index_of(station_name)]->server->queue_special(
      station_name, std::move(command));
}

bool ShardedFleet::queue_update(const std::string& station_name,
                                core::UpdatePackage package) {
  return worlds_[index_of(station_name)]->server->queue_update(
      station_name, std::move(package));
}

bool ShardedFleet::queue_config_update(const std::string& station_name,
                                       core::ConfigUpdate update) {
  return worlds_[index_of(station_name)]->server->queue_config_update(
      station_name, std::move(update));
}

void ShardedFleet::set_manual_override(
    std::optional<core::PowerState> override_state) {
  for (auto& world : worlds_) {
    world->server->sync().set_manual_override(override_state);
  }
  hub_.sync().set_manual_override(override_state);
}

void ShardedFleet::set_group_override(
    const std::string& group, std::optional<core::PowerState> override_state) {
  for (auto& world : worlds_) {
    world->server->sync().set_group_override(group, override_state);
  }
  hub_.sync().set_group_override(group, override_state);
}

std::vector<obs::MergedEvent> ShardedFleet::merged_journal() const {
  std::vector<std::pair<std::string, const obs::EventJournal*>> journals;
  journals.reserve(worlds_.size() * 2);
  for (const auto& world : worlds_) {
    journals.emplace_back(world->station->name(),
                          &world->station->journal());
    journals.emplace_back(world->station->name() + "/fault",
                          &world->fault_journal);
  }
  return obs::merge_journals(journals);
}

std::vector<std::string> ShardedFleet::merged_trace_series_names() const {
  std::vector<std::string> names;
  for (const auto& world : worlds_) {
    for (const auto& name : world->trace.series_names()) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void ShardedFleet::drain(sim::SimTime barrier) {
  (void)barrier;
  // Only the worlds that pushed output since the last barrier, in
  // ascending index: a full scan's order with the silent worlds skipped.
  // A silent world posts nothing, so every post keeps the merge seq a full
  // scan would give it (docs/PARALLELISM.md, "Barrier drain").
  std::vector<std::size_t> marked;
  for (auto& list : dirty_) {
    marked.insert(marked.end(), list.begin(), list.end());
    list.clear();
  }
  std::sort(marked.begin(), marked.end());
  for (const std::size_t s : marked) {
    World& world = *worlds_[s];
    world.outbox.unmark();
    // Fresh sync reports relay to every group peer's replica as
    // kernel-exact events at report time + latency: visibility is uniform
    // whether or not the peer shares a shard, so partition never shows.
    for (const auto& report : world.server->sync().drain_report_log()) {
      for (const std::size_t peer : world.peers) {
        core::SyncServer* target = &worlds_[peer]->server->sync();
        sharded_->post(worlds_[peer]->shard,
                       report.reported_at + config_.latency, report.station,
                       [target, report] {
                         target->record_remote_state(report.station,
                                                     report.state,
                                                     report.reported_at);
                       });
      }
    }
    // Ingest flows to the hub as coordinator messages; the hub ledger
    // keeps the station-side timestamps.
    for (auto& file : world.server->drain_received()) {
      sharded_->post_apply(file.received_at + config_.latency, file.station,
                           [this, file](sim::SimTime) {
                             hub_.receive_file(file.station, file.name,
                                               file.size, file.received_at);
                           });
    }
    for (auto& beacon : world.server->drain_beacons()) {
      sharded_->post_apply(beacon.at + config_.latency,
                           world.station->name(),
                           [this, beacon](sim::SimTime) {
                             hub_.receive_beacon(beacon.station, beacon.beacon,
                                                 beacon.at);
                           });
    }
    for (auto& result : world.server->drain_special_results()) {
      sharded_->post_apply(result.executed_at + config_.latency,
                           world.station->name(),
                           [this, result](sim::SimTime) {
                             hub_.record_special_result(result);
                           });
    }
  }
}

void ShardedFleet::sample_trace(std::size_t index) {
  World& world = *worlds_[index];
  sim::Simulation& shard = sharded_->shard(world.shard);
  assembly::sample_station(world.trace, config_.fleet, shard.now(),
                           *world.station, world.probes, *world.environment);
  shard.schedule_in(assembly::kTraceInterval,
                    [this, index] { sample_trace(index); });
}

}  // namespace gw::station
