#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "snapshot/archive.h"

namespace gw::sim {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  simulation.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  simulation.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  simulation.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulation.schedule_at(SimTime{500}, [&order, i] { order.push_back(i); });
  }
  simulation.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation simulation{SimTime{1000}};
  SimTime seen{};
  simulation.schedule_in(Duration{500}, [&] { seen = simulation.now(); });
  simulation.run_all();
  EXPECT_EQ(seen, SimTime{1500});
  EXPECT_EQ(simulation.now(), SimTime{1500});
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation simulation{SimTime{1000}};
  EXPECT_THROW(simulation.schedule_at(SimTime{999}, [] {}),
               std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulation simulation;
  int fired = 0;
  simulation.schedule_at(SimTime{100}, [&] { ++fired; });
  simulation.schedule_at(SimTime{900}, [&] { ++fired; });
  simulation.run_until(SimTime{500});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.now(), SimTime{500});
  simulation.run_until(SimTime{1000});
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation simulation;
  int depth = 0;
  simulation.schedule_at(SimTime{10}, [&] {
    ++depth;
    simulation.schedule_in(Duration{10}, [&] { ++depth; });
  });
  simulation.run_all();
  EXPECT_EQ(depth, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation simulation;
  bool fired = false;
  const EventId id = simulation.schedule_at(SimTime{50}, [&] { fired = true; });
  simulation.cancel(id);
  simulation.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelUnknownIdIsNoOp) {
  Simulation simulation;
  simulation.cancel(EventId{12345});
  bool fired = false;
  simulation.schedule_at(SimTime{1}, [&] { fired = true; });
  simulation.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulation, PeriodicSelfRescheduling) {
  Simulation simulation;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 48) simulation.schedule_in(minutes(30), tick);
  };
  simulation.schedule_in(minutes(30), tick);
  simulation.run_until(kEpoch + days(1));
  EXPECT_EQ(ticks, 48);  // one day of 30-minute voltage samples
}

TEST(Simulation, RunAllBudgetGuard) {
  Simulation simulation;
  std::function<void()> forever = [&] {
    simulation.schedule_in(Duration{1}, forever);
  };
  simulation.schedule_in(Duration{1}, forever);
  EXPECT_THROW(simulation.run_all(1000), std::runtime_error);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation simulation;
  for (int i = 0; i < 5; ++i) simulation.schedule_at(SimTime{i}, [] {});
  simulation.run_all();
  EXPECT_EQ(simulation.events_executed(), 5u);
}

// Regression for the pre-tombstone cancel() id leak: cancelling unknown or
// already-fired ids used to park them in a set forever, so pending() and
// empty() drifted for the rest of the run.
TEST(Simulation, PendingIsExactAfterSpuriousCancels) {
  Simulation simulation;
  const EventId fired = simulation.schedule_at(SimTime{1}, [] {});
  simulation.run_all();
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_TRUE(simulation.empty());

  simulation.cancel(fired);             // already fired
  simulation.cancel(EventId{12345});    // never issued
  simulation.cancel(EventId{0});        // never issued
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_TRUE(simulation.empty());

  const EventId live = simulation.schedule_at(SimTime{10}, [] {});
  EXPECT_EQ(simulation.pending(), 1u);
  simulation.cancel(live);
  simulation.cancel(live);  // double-cancel must not underflow the count
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_TRUE(simulation.empty());
  simulation.run_all();
  EXPECT_EQ(simulation.events_executed(), 1u);
}

TEST(Simulation, MoveOnlyCallablesAreSchedulable) {
  Simulation simulation;
  int observed = 0;
  auto payload = std::make_unique<int>(7);
  simulation.schedule_at(
      SimTime{5}, [p = std::move(payload), &observed] { observed = *p; });
  simulation.run_all();
  EXPECT_EQ(observed, 7);
}

// A handle from a previous tenancy of a recycled slot must not cancel the
// new tenant (the generation check).
TEST(Simulation, StaleIdFromRecycledSlotIsHarmless) {
  Simulation simulation;
  const EventId old_id = simulation.schedule_at(SimTime{1}, [] {});
  simulation.run_all();  // slot freed back to the pool

  bool fired = false;
  simulation.schedule_at(SimTime{2}, [&] { fired = true; });  // reuses slot
  simulation.cancel(old_id);  // stale generation: must be a no-op
  simulation.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelOwnEventFromItsCallbackIsNoOp) {
  Simulation simulation;
  EventId self{};
  int fired = 0;
  self = simulation.schedule_at(SimTime{1}, [&] {
    ++fired;
    simulation.cancel(self);  // already executing: must not corrupt state
  });
  simulation.schedule_at(SimTime{2}, [&] { ++fired; });
  simulation.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulation.pending(), 0u);
}

TEST(Simulation, CancelLaterEventFromEarlierCallback) {
  Simulation simulation;
  bool late_fired = false;
  const EventId late =
      simulation.schedule_at(SimTime{100}, [&] { late_fired = true; });
  simulation.schedule_at(SimTime{50}, [&] { simulation.cancel(late); });
  simulation.run_all();
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(simulation.events_executed(), 1u);
}

// Heavy interleaving of bursts, cancellations, and partial drains must keep
// pending() consistent with what actually fires.
TEST(Simulation, PendingTracksBurstsAndDrains) {
  Simulation simulation;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(simulation.schedule_at(SimTime{i % 10}, [&] { ++fired; }));
  }
  EXPECT_EQ(simulation.pending(), 100u);
  for (int i = 0; i < 100; i += 4) simulation.cancel(ids[std::size_t(i)]);
  EXPECT_EQ(simulation.pending(), 75u);
  simulation.run_until(SimTime{4});
  simulation.run_all();
  EXPECT_EQ(fired, 75);
  EXPECT_EQ(simulation.pending(), 0u);
}

// Self-rescheduling streams, the way stations drive the kernel: stream i
// fires every kStreamPeriods[i] ms and logs (time, stream). There are more
// distinct periods than lanes, so some streams sit in lanes and some in
// the heap, and cancelling the only 10 ms event drains its lane for
// another delay to bind. Each stream's pending event is saved and restored
// through persist_pending, as a station component does.
constexpr std::int64_t kStreamPeriods[] = {60, 60, 10, 120, 1800, 7, 25, 60};
constexpr std::size_t kStreams = std::size(kStreamPeriods);
using StreamLog = std::vector<std::pair<std::int64_t, int>>;

class PeriodicStreams {
 public:
  PeriodicStreams(Simulation& simulation, StreamLog& log)
      : simulation_(simulation), log_(log), ids_(kStreams, EventId{0}) {}

  void start() {
    for (std::size_t i = 0; i < kStreams; ++i) schedule(i);
  }

  void cancel(std::size_t stream) { simulation_.cancel(ids_[stream]); }

  template <class Archive>
  void persist(Archive& ar) {
    for (std::size_t i = 0; i < kStreams; ++i) {
      persist_pending(ar, simulation_, ids_[i], [this, i] { fire(i); });
    }
  }

 private:
  void schedule(std::size_t stream) {
    ids_[stream] = simulation_.schedule_in(Duration{kStreamPeriods[stream]},
                                           [this, stream] { fire(stream); });
  }

  void fire(std::size_t stream) {
    log_.emplace_back(simulation_.now().millis_since_epoch(), int(stream));
    schedule(stream);
  }

  Simulation& simulation_;
  StreamLog& log_;
  std::vector<EventId> ids_;
};

constexpr SimTime kSaveAt{1234};
constexpr SimTime kRunTo{9000};
constexpr std::size_t kCancelledStream = 2;  // the 10 ms stream

// Runs the streams to kSaveAt and cancels one stream's pending event.
void run_to_save_point(Simulation& simulation, PeriodicStreams& streams) {
  streams.start();
  simulation.run_until(kSaveAt);
  ASSERT_EQ(simulation.pending(), kStreams);
  streams.cancel(kCancelledStream);
  streams.cancel(kCancelledStream);
  ASSERT_EQ(simulation.pending(), kStreams - 1);
}

TEST(Simulation, LaneEventsRestoreUnderTheirSavedKeys) {
  StreamLog expected;
  {
    Simulation simulation;
    PeriodicStreams streams(simulation, expected);
    run_to_save_point(simulation, streams);
    simulation.run_until(kRunTo);
    EXPECT_EQ(simulation.pending(), kStreams - 1);
  }

  StreamLog actual;
  Simulation::KernelCheckpoint checkpoint;
  snapshot::Saver saver;
  {
    Simulation simulation;
    PeriodicStreams streams(simulation, actual);
    run_to_save_point(simulation, streams);
    checkpoint = simulation.checkpoint();
    streams.persist(saver);
    EXPECT_EQ(saver.rebuild_records, simulation.pending());
  }
  const std::vector<std::uint8_t> records = saver.take();

  Simulation restored;
  PeriodicStreams streams(restored, actual);
  restored.begin_restore(checkpoint);
  snapshot::Loader loader{records};
  streams.persist(loader);
  restored.finish_restore();
  EXPECT_EQ(restored.now(), kSaveAt);
  EXPECT_EQ(restored.pending(), kStreams - 1);
  restored.run_until(kRunTo);

  ASSERT_GT(expected.size(), 1000u);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(restored.pending(), kStreams - 1);
  EXPECT_EQ(restored.events_executed(), expected.size());
}

}  // namespace
}  // namespace gw::sim
