#include "sim/sharded_simulation.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

namespace gw::sim {
namespace {

unsigned resolve_workers(unsigned requested, std::size_t shards) {
  unsigned workers = requested;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  const auto cap = static_cast<unsigned>(shards);
  return std::min(workers, cap);
}

}  // namespace

ShardedSimulation::ShardedSimulation(ShardedConfig config)
    : config_(config),
      now_(config.start),
      pool_(resolve_workers(config.workers,
                            config.shards == 0 ? 1 : config.shards)) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.lookahead <= Duration{0}) {
    throw std::invalid_argument(
        "ShardedSimulation: lookahead must be positive");
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>(config_.start));
  }
}

void ShardedSimulation::post(std::size_t target, SimTime deliver_at,
                             std::string key, std::function<void()> fn) {
  if (target >= shards_.size()) {
    throw std::invalid_argument("ShardedSimulation: post to unknown shard");
  }
  if (deliver_at <= now_) {
    throw std::invalid_argument(
        "ShardedSimulation: message must be delivered after the current "
        "barrier");
  }
  Message message;
  message.deliver_at_ms = deliver_at.millis_since_epoch();
  message.key = std::move(key);
  message.target = target;
  message.event_fn = std::move(fn);
  outbox_.push_back(std::move(message));
}

void ShardedSimulation::post_apply(SimTime deliver_at, std::string key,
                                   std::function<void(SimTime)> fn) {
  if (deliver_at <= now_) {
    throw std::invalid_argument(
        "ShardedSimulation: message must be delivered after the current "
        "barrier");
  }
  Message message;
  message.deliver_at_ms = deliver_at.millis_since_epoch();
  message.key = std::move(key);
  message.apply_fn = std::move(fn);
  outbox_.push_back(std::move(message));
}

void ShardedSimulation::merge_outbox() {
  if (outbox_.empty()) return;
  for (Message& message : outbox_) {
    message.seq = next_seq_++;
    ++messages_posted_;
    auto& queue = message.event_fn ? pending_events_ : pending_applies_;
    queue.push_back(std::move(message));
  }
  outbox_.clear();
  const auto order = [](const Message& a, const Message& b) {
    return std::tie(a.deliver_at_ms, a.key, a.seq) <
           std::tie(b.deliver_at_ms, b.key, b.seq);
  };
  std::sort(pending_events_.begin(), pending_events_.end(), order);
  std::sort(pending_applies_.begin(), pending_applies_.end(), order);
}

void ShardedSimulation::inject_events(SimTime window_end) {
  const std::int64_t horizon = window_end.millis_since_epoch();
  std::size_t injected = 0;
  while (injected < pending_events_.size() &&
         pending_events_[injected].deliver_at_ms <= horizon) {
    Message& message = pending_events_[injected];
    shards_[message.target]->schedule_at(SimTime{message.deliver_at_ms},
                                         std::move(message.event_fn));
    ++messages_delivered_;
    ++injected;
  }
  pending_events_.erase(pending_events_.begin(),
                        pending_events_.begin() + std::ptrdiff_t(injected));
}

void ShardedSimulation::apply_messages(SimTime barrier) {
  const std::int64_t horizon = barrier.millis_since_epoch();
  std::size_t applied = 0;
  while (applied < pending_applies_.size() &&
         pending_applies_[applied].deliver_at_ms <= horizon) {
    pending_applies_[applied].apply_fn(barrier);
    ++messages_delivered_;
    ++applied;
  }
  pending_applies_.erase(pending_applies_.begin(),
                         pending_applies_.begin() + std::ptrdiff_t(applied));
}

void ShardedSimulation::run_until(SimTime deadline) {
  if (deadline < now_) {
    throw std::invalid_argument("ShardedSimulation: run_until into the past");
  }
  merge_outbox();
  while (now_ < deadline) {
    const SimTime full = now_ + config_.lookahead;
    const SimTime window_end = deadline < full ? deadline : full;
    inject_events(window_end);
    pool_.run(shards_.size(), [this, window_end](std::size_t index) {
      shards_[index]->run_until(window_end);
      return 0;
    });
    now_ = window_end;
    ++windows_run_;
    apply_messages(now_);
    if (hook_) hook_(now_);
    merge_outbox();
  }
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_executed();
  return total;
}

}  // namespace gw::sim
