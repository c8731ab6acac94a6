// Sharded discrete-event kernel: conservative time-window parallelism.
//
// The paper's deployment is many near-independent stations that interact
// only through the Southampton server over high-latency GPRS sessions.
// That latency is *lookahead* in PDES terms: nothing one station does can
// affect another sooner than the slowest leg of a server round-trip. A
// ShardedSimulation exploits it Graphite-style (lax but bounded): K
// independent sim::Simulation kernels ("shards") advance in lockstep
// windows of exactly `lookahead`, a pool of workers runs the shards of one
// window concurrently, and every cross-shard interaction travels as a
// timestamped message that is only examined at the barrier between
// windows. A shard may therefore run ahead of the slowest shard by at most
// one window — the conservative synchronisation bound.
//
// Messages are posted on the coordinator thread only — between runs or
// from the barrier hook, which is where the fleet layer drains its
// per-world ledgers — and come in two flavours (docs/PARALLELISM.md):
//
//   * post(): kernel-exact events. At the barrier that opens the window
//     containing `deliver_at`, the coordinator schedules the callback on
//     the target shard at exactly `deliver_at`; post() requires
//     deliver_at > now(), so that barrier has not yet passed. Delivery
//     timing is therefore independent of the window grid, the shard count,
//     and the worker count.
//   * post_apply(): coordinator messages, applied single-threaded at the
//     first barrier at or after `deliver_at` — for state that no kernel
//     event reads (e.g. the fleet's hub server, only inspected between
//     runs).
//
// Determinism argument, in three parts:
//   1. within a window, shards share no mutable state — each kernel runs
//      its own (time, seq) total order exactly as the serial kernel would;
//   2. all cross-shard mutation happens on the coordinator thread at
//      barriers, ordered by (deliver_at, key, post order). Callers key
//      messages by their originating component (a station name), and one
//      component lives on exactly one shard, so the post order of equal
//      (deliver_at, key) pairs never depends on the partition;
//   3. barrier times form a fixed grid (now + lookahead, truncated at
//      run_until deadlines), independent of shard/worker counts.
// Hence every observable — journals, metrics, traces, events_executed() —
// is byte-identical at any thread count and any shard count, which
// tests/system/sharded_determinism_test.cpp pins.
//
// Thread-safety contract: the coordinator (the thread calling run_until)
// owns everything between windows; during a window, the worker advancing
// shard i touches only shard i's state and posts nothing. The
// worker pool is the PR 3 MonteCarloRunner — its dispatch/complete
// handshake provides the happens-before edges TSan checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/monte_carlo_runner.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace gw::sim {

struct ShardedConfig {
  std::size_t shards = 1;
  // Worker threads advancing shards within a window; 0 = hardware
  // concurrency, capped at the shard count (more would only idle).
  unsigned workers = 0;
  // Window length and minimum cross-shard message latency. Derived by the
  // caller from the slowest-to-cross boundary (for a fleet: the minimum
  // GPRS session set-up, see station::derive_fleet_lookahead).
  Duration lookahead = minutes(5);
  SimTime start = kEpoch;
};

class ShardedSimulation {
 public:
  explicit ShardedSimulation(ShardedConfig config);

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Simulation& shard(std::size_t index) {
    return *shards_[index];
  }
  [[nodiscard]] const Simulation& shard(std::size_t index) const {
    return *shards_[index];
  }
  [[nodiscard]] unsigned workers() const { return pool_.threads(); }
  [[nodiscard]] Duration lookahead() const { return config_.lookahead; }

  // Global time: the last barrier reached. Between run_until calls every
  // shard's clock equals this.
  [[nodiscard]] SimTime now() const { return now_; }

  // Invoked on the coordinator thread at every barrier, after that
  // barrier's post_apply messages ran. The fleet layer drains its replica
  // ledgers here and posts the next round of messages.
  void set_barrier_hook(std::function<void(SimTime)> hook) {
    hook_ = std::move(hook);
  }

  // --- messages -----------------------------------------------------------
  //
  // `key` names the originating component; it is the tie-breaker that makes
  // equal-timestamp delivery order partition-invariant, so it must be
  // stable across partitions (a station name, never a shard index).

  // Kernel-exact event on shard `target` at exactly `deliver_at`.
  // Coordinator context (between runs or inside the barrier hook);
  // requires deliver_at > now().
  // gw::context(coordinator)
  void post(std::size_t target, SimTime deliver_at, std::string key,
            std::function<void()> fn);

  // Coordinator message: fn(barrier_time) runs single-threaded at the
  // first barrier at or after `deliver_at`. Coordinator context; requires
  // deliver_at > now().
  // gw::context(coordinator)
  void post_apply(SimTime deliver_at, std::string key,
                  std::function<void(SimTime)> fn);

  // --- execution ----------------------------------------------------------

  // Advances every shard to `deadline`, window by window. Re-entrant with
  // any deadline pattern: a deadline mid-window truncates that window (the
  // next call resumes with a fresh full window), which changes barrier
  // times but never message delivery times.
  // gw::context(coordinator)
  void run_until(SimTime deadline);
  void run_for(Duration d) { run_until(now_ + d); }

  // --- introspection ------------------------------------------------------

  // Sum over shards — partition-invariant as long as callers schedule the
  // same events per component regardless of the partition.
  [[nodiscard]] std::uint64_t events_executed() const;

  [[nodiscard]] std::uint64_t windows_run() const { return windows_run_; }
  [[nodiscard]] std::uint64_t messages_posted() const {
    return messages_posted_;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }
  [[nodiscard]] std::size_t messages_pending() const {
    return pending_events_.size() + pending_applies_.size();
  }

 private:
  struct Message {
    std::int64_t deliver_at_ms = 0;
    std::string key;
    std::uint64_t seq = 0;  // merge order; assigned on the coordinator
    std::size_t target = 0;
    std::function<void()> event_fn;          // post
    std::function<void(SimTime)> apply_fn;   // post_apply
  };

  // Moves the outbox into the pending queues, assigning merge-order
  // sequence numbers, and re-sorts them by (deliver_at, key, seq).
  // Coordinator context only.
  void merge_outbox();
  // Schedules every pending event with deliver_at <= window_end onto its
  // target shard, in sorted order.
  void inject_events(SimTime window_end);
  // Runs every pending apply-message with deliver_at <= barrier.
  void apply_messages(SimTime barrier);

  ShardedConfig config_;
  SimTime now_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  runner::MonteCarloRunner pool_;
  std::function<void(SimTime)> hook_;
  std::vector<Message> outbox_;  // posted since the last merge
  std::vector<Message> pending_events_;
  std::vector<Message> pending_applies_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t windows_run_ = 0;
  std::uint64_t messages_posted_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace gw::sim
