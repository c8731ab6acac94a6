// Golden event-order property test for the event kernel.
//
// The kernel's contract is a total order — (timestamp, then scheduling
// sequence) — that must survive any mix of tied bursts, steady-state
// rescheduling, cancellation, run_until checkpoints and the wrap of the
// kernel's 32-bit tie-break sequence, whether an event sits in the heap or
// in a delay lane. This test replays two seeded workloads — adversarial
// bursts, and periodic streams that bind, drain and rebind the lanes —
// against both sim::Simulation and a deliberately naive reference kernel
// (linear scan for the minimum, the obviously-correct O(n^2)
// implementation of the same contract, with a 64-bit sequence that never
// wraps) and requires the two execution traces to match event for event.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <ostream>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace gw::sim {
namespace {

// Obviously-correct reference: every pending event in one vector, the next
// event found by scanning for the minimum (at, seq).
class ReferenceKernel {
 public:
  explicit ReferenceKernel(std::int64_t start) : now_(start) {}

  [[nodiscard]] std::int64_t now() const { return now_; }

  std::uint64_t schedule(std::int64_t at, std::function<void()> fn) {
    events_.push_back(Event{at, next_seq_, std::move(fn), false});
    return next_seq_++;
  }

  void cancel(std::uint64_t seq) {
    for (Event& event : events_) {
      if (event.seq == seq) {
        event.cancelled = true;
        return;
      }
    }
  }

  void run_until(std::int64_t deadline) {
    while (true) {
      const std::size_t index = find_min();
      if (index == events_.size() || events_[index].at > deadline) break;
      fire(index);
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_all() {
    while (true) {
      const std::size_t index = find_min();
      if (index == events_.size()) break;
      fire(index);
    }
  }

 private:
  struct Event {
    std::int64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled;
  };

  std::size_t find_min() {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].cancelled) continue;
      if (best == events_.size() || events_[i].at < events_[best].at ||
          (events_[i].at == events_[best].at &&
           events_[i].seq < events_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  void fire(std::size_t index) {
    now_ = events_[index].at;
    const std::function<void()> fn = std::move(events_[index].fn);
    events_.erase(events_.begin() + std::ptrdiff_t(index));
    fn();
  }

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 1;
  std::int64_t now_ = 0;
};

// Drives one kernel through the scripted workload. Kernel is duck-typed:
// schedule(at, fn) -> id, cancel(id), run_until(deadline), run_all(),
// now(). Every decision is drawn from the same seeded Rng stream, so both
// kernels see the identical operation sequence; the only free variable is
// the order the kernel fires events in — which is exactly what the trace
// records.
template <typename Kernel, typename ScheduleAt, typename RunUntil>
std::vector<int> run_bursts(std::uint64_t seed, Kernel& kernel,
                            ScheduleAt schedule_at, RunUntil run_until,
                            std::function<void()> run_all,
                            std::function<std::int64_t()> now) {
  util::Rng rng{seed};
  std::vector<int> trace;
  std::vector<std::uint64_t> live_ids;
  int next_label = 0;

  // Self-rescheduling events exercise scheduling while draining: a fired
  // event schedules a child at a deterministic offset (ties with other
  // children are common on purpose).
  std::function<void(int, int)> fire_and_maybe_respawn =
      [&](int label, int respawns) {
        trace.push_back(label);
        if (respawns > 0) {
          const std::int64_t at = now() + 1 + (label * 13) % 7;
          const int child = 100000 + label;
          live_ids.push_back(schedule_at(at, [&, child, respawns] {
            fire_and_maybe_respawn(child, respawns - 1);
          }));
        }
      };

  for (int round = 0; round < 40; ++round) {
    // Burst: a batch of events over a narrow window (lots of exact ties).
    const int burst = 5 + int(rng.uniform_index(60));
    for (int i = 0; i < burst; ++i) {
      const std::int64_t at = now() + std::int64_t(rng.uniform_index(50));
      const int label = next_label++;
      const int respawns = rng.bernoulli(0.2) ? 2 : 0;
      live_ids.push_back(schedule_at(at, [&, label, respawns] {
        fire_and_maybe_respawn(label, respawns);
      }));
    }
    // Cancel a few known ids (some already fired — must be no-ops) and a
    // couple of ids that were never issued.
    const int cancels = int(rng.uniform_index(8));
    for (int i = 0; i < cancels && !live_ids.empty(); ++i) {
      kernel.cancel(live_ids[rng.uniform_index(live_ids.size())]);
    }
    kernel.cancel(0xdeadbeefdeadbeefULL);
    kernel.cancel(std::uint64_t(rng.uniform_index(1u << 30)));
    // Advance to a checkpoint, or fully drain.
    if (rng.bernoulli(0.25)) {
      run_all();
    } else {
      run_until(now() + std::int64_t(rng.uniform_index(40)));
    }
  }
  run_all();
  return trace;
}

// Periodic streams, the station's traffic shape: each stream reschedules
// itself a fixed period after it fires. Most streams share the first
// period, as power ticks do; the periods plus the start offsets are many
// more distinct delays than the kernel has lanes, and the rare-period
// streams are short-lived, so lanes bind, drain and rebind all run long.
// Every start and period is a multiple of 5, so events tie across streams
// and across queues all the time. Cancelling a stream's pending event
// (which sits in a lane when its delay has one) ends the stream.
template <typename Kernel, typename ScheduleAt, typename RunUntil>
std::vector<int> run_periodic(std::uint64_t seed, Kernel& kernel,
                              ScheduleAt schedule_at, RunUntil run_until,
                              std::function<void()> run_all,
                              std::function<std::int64_t()> now) {
  constexpr std::int64_t kPeriods[] = {60, 60, 60, 60, 1800, 3600,
                                       5,  15, 250, 10, 90,   60};
  struct Stream {
    std::int64_t period;
    int remaining;
    std::uint64_t id;
  };
  util::Rng rng{seed};
  std::vector<int> trace;
  std::vector<Stream> streams;

  std::function<void(std::size_t)> fire = [&](std::size_t index) {
    trace.push_back(int(index));
    Stream& stream = streams[index];
    if (--stream.remaining > 0) {
      stream.id = schedule_at(now() + stream.period,
                              [&fire, index] { fire(index); });
    }
  };

  for (int round = 0; round < 60; ++round) {
    const int starts = 2 + int(rng.uniform_index(4));
    for (int i = 0; i < starts; ++i) {
      const std::int64_t period =
          kPeriods[rng.uniform_index(std::size(kPeriods))];
      const int lifetime = period == 60 ? 200 : 1 + int(rng.uniform_index(12));
      const std::size_t index = streams.size();
      streams.push_back(Stream{period, lifetime, 0});
      const std::int64_t start =
          (now() / 5 + 1 + std::int64_t(rng.uniform_index(12))) * 5;
      streams[index].id =
          schedule_at(start, [&fire, index] { fire(index); });
    }
    const int cancels = int(rng.uniform_index(3));
    for (int i = 0; i < cancels; ++i) {
      kernel.cancel(streams[rng.uniform_index(streams.size())].id);
    }
    if (rng.bernoulli(0.1)) {
      run_until(now() + 4000);
    } else {
      run_until(now() + std::int64_t(rng.uniform_index(400)));
    }
  }
  run_all();
  return trace;
}

// One input: the workload, its seed and the kernel's first tie-break
// sequence. Printed as the seed, "-periodic" for the periodic streams and
// "-wrap" for a start near 2^32.
struct GoldenInput {
  std::uint64_t seed;
  std::uint32_t first_seq = 1;
  bool periodic = false;
};

std::ostream& operator<<(std::ostream& os, const GoldenInput& input) {
  return os << input.seed << (input.periodic ? "-periodic" : "")
            << (input.first_seq == 1 ? "" : "-wrap");
}

// Runs the input's workload on `kernel`.
template <typename Kernel, typename ScheduleAt, typename RunUntil>
std::vector<int> run_workload(const GoldenInput& input, Kernel& kernel,
                              ScheduleAt schedule_at, RunUntil run_until,
                              std::function<void()> run_all,
                              std::function<std::int64_t()> now) {
  if (input.periodic) {
    return run_periodic(input.seed, kernel, schedule_at, run_until,
                        std::move(run_all), std::move(now));
  }
  return run_bursts(input.seed, kernel, schedule_at, run_until,
                    std::move(run_all), std::move(now));
}

struct SimulationTrace {
  std::vector<int> order;
  std::uint32_t next_seq;  // the kernel's tie-break counter at the end
};

// A `first_seq` other than 1 starts the kernel's sequence counter there
// through the public restore protocol, so a workload started a few hundred
// sequences below 2^32 crosses the wrap and its renumbering.
SimulationTrace trace_simulation(const GoldenInput& input) {
  Simulation simulation{SimTime{0}};
  if (input.first_seq != 1) {
    Simulation::KernelCheckpoint checkpoint;
    checkpoint.next_seq = input.first_seq;
    simulation.begin_restore(checkpoint);
    simulation.finish_restore();
  }
  std::vector<int> order = run_workload(
      input, simulation,
      [&](std::int64_t at, std::function<void()> fn) {
        return simulation.schedule_at(SimTime{at}, std::move(fn));
      },
      [&](std::int64_t deadline) { simulation.run_until(SimTime{deadline}); },
      [&] { simulation.run_all(); },
      [&] { return simulation.now().millis_since_epoch(); });
  return {std::move(order), simulation.checkpoint().next_seq};
}

std::vector<int> trace_reference(const GoldenInput& input) {
  ReferenceKernel kernel{0};
  return run_workload(
      input, kernel,
      [&](std::int64_t at, std::function<void()> fn) {
        return kernel.schedule(at, std::move(fn));
      },
      [&](std::int64_t deadline) { kernel.run_until(deadline); },
      [&] { kernel.run_all(); }, [&] { return kernel.now(); });
}

class EventOrderGolden : public ::testing::TestWithParam<GoldenInput> {};

TEST_P(EventOrderGolden, MatchesReferenceKernel) {
  const GoldenInput input = GetParam();
  const std::vector<int> expected = trace_reference(input);
  const SimulationTrace actual = trace_simulation(input);
  ASSERT_GT(expected.size(), 100u) << "workload degenerated";
  if (input.first_seq != 1) {
    ASSERT_LT(actual.next_seq, input.first_seq) << "workload never wrapped";
  }
  EXPECT_EQ(actual.order, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialSeeds, EventOrderGolden,
    ::testing::Values(GoldenInput{1}, GoldenInput{7}, GoldenInput{42},
                      GoldenInput{2008}, GoldenInput{0xabcdef},
                      GoldenInput{42, 0xffffffffu - 300},
                      GoldenInput{42, 1, true},
                      GoldenInput{42, 0xffffffffu - 300, true}));

}  // namespace
}  // namespace gw::sim
