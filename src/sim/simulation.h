// Discrete-event simulation kernel.
//
// One global event queue drives every model in the repository: chargers
// integrate energy on 60 s ticks, the MSP430 samples voltage every 30 min,
// stations wake at their scheduled windows, packets arrive after their
// serialisation delay. Events at equal timestamps run in scheduling order
// (a monotonic sequence number breaks ties), so runs are bit-reproducible.
//
// Hot-path design (docs/PERFORMANCE.md):
//   * pending events are 16-byte POD nodes (time, sequence, slot index)
//     held in two kinds of queue. Most of the traffic is periodic (a
//     station-day is ~1440 self-rescheduling 60 s power ticks), so
//     schedule_at() first offers a node to one of kLanes FIFO *delay
//     lanes*: the lane bound to its delay (at - now), or an empty lane,
//     which it binds. Because now() never decreases and sequences only
//     grow, every lane is already sorted by (time, sequence), so a lane
//     push and pop are O(1). A node whose delay has no lane goes to a
//     4-ary implicit heap (O(log n) push and pop), as do the rebuilt
//     events of a snapshot restore. step() runs the earliest of the heap
//     top and the lane heads, so the executed order is the exact
//     (timestamp, sequence) total order; a lane is unbound when it drains;
//   * callbacks are InlineCallback (48-byte small-buffer storage, no
//     per-event allocation for the lambdas this repo schedules), built
//     in place in a chunked slot slab whose addresses never move — so an
//     event is invoked directly from its slot, not copied out first;
//   * cancellation is a generation-checked tombstone: cancel() flips the
//     slot state in O(1) and the dead node, in the heap or in a lane, is
//     skipped when it surfaces — no hash probe per executed event, and
//     pending() is an exact counter (cancelling unknown or already-fired
//     ids no longer distorts it).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"
#include "snapshot/error.h"

namespace gw::sim {

// Opaque handle: packs (slot index << 32 | slot generation). Generations
// make stale handles harmless — cancel() of a fired, cancelled, or never-
// issued id is a no-op, exactly like an embedded timer API.
using EventId = std::uint64_t;

class Simulation {
 public:
  explicit Simulation(SimTime start = kEpoch) : now_(start) {}

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `fn` (any void() callable; move-only is fine) at absolute
  // time `at` (>= now). Returns an id usable with cancel().
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    if (at < now_) throw std::invalid_argument("schedule_at in the past");
    if (next_seq_ == kMaxSeq) renumber_sequences();
    const std::int64_t at_ms = at.millis_since_epoch();
    const EventId id = emplace(std::forward<F>(fn));
    push_node(Node{at_ms, next_seq_++, slot_of(id)},
              at_ms - now_.millis_since_epoch());
    return id;
  }

  template <typename F>
  EventId schedule_in(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event; cancelling an already-fired or unknown id is a
  // no-op (matches how embedded timers behave). O(1): the queued node
  // becomes a tombstone discarded when it reaches the head.
  void cancel(EventId id) {
    const std::uint32_t index = slot_of(id);
    const auto generation = static_cast<std::uint32_t>(id);
    if (index >= slot_count_) return;
    Slot& slot = slot_at(index);
    if (slot.state != SlotState::kPending || slot.generation != generation) {
      return;
    }
    slot.state = SlotState::kCancelled;
    slot.fn.reset();  // release captures now, not when the tombstone pops
    --live_count_;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_count_; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  // Runs the next event, if any; returns false when the queue is exhausted.
  bool step() {
    Node node{};
    while (pop_earliest(kNever, node)) {
      if (dispatch(node)) return true;
    }
    return false;
  }

  // Runs every event with timestamp <= deadline, then advances the clock to
  // the deadline (even if the queue went quiet earlier).
  void run_until(SimTime deadline) {
    Node node{};
    while (pop_earliest(deadline.millis_since_epoch(), node)) dispatch(node);
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(Duration duration) { run_until(now_ + duration); }

  // Drains the queue completely. Guarded by a ceiling so a self-rescheduling
  // model can't spin forever in a test.
  void run_all(std::uint64_t max_events = 100'000'000) {
    std::uint64_t executed = 0;
    while (step()) {
      if (++executed > max_events) {
        throw std::runtime_error("Simulation::run_all exceeded event budget");
      }
    }
  }

  // --- snapshot support (docs/SNAPSHOT.md) --------------------------------
  //
  // The queue's InlineCallback closures are code, not data, so the kernel
  // cannot serialise itself wholesale. Instead, each component that owns a
  // pending event saves a *rebuild record* — the event's exact queued
  // (timestamp, sequence) key, looked up with pending_key() — and on
  // restore re-registers an equivalent callback under that same key with
  // schedule_rebuilt(). Because execution order is the (time, seq) total
  // order and every key is replayed verbatim (never recomputed), a
  // restored run interleaves exactly like the original.

  struct KernelCheckpoint {
    std::int64_t now_ms = 0;
    std::uint32_t next_seq = 1;
    std::uint64_t events_executed = 0;
    std::uint64_t live_events = 0;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(now_ms);
      ar.value(next_seq);
      ar.value(events_executed);
      ar.value(live_events);
    }
  };

  [[nodiscard]] KernelCheckpoint checkpoint() const {
    return KernelCheckpoint{now_.millis_since_epoch(), next_seq_,
                            events_executed_, live_count_};
  }

  // The queued (timestamp, sequence) key of a still-pending event, or
  // nullopt when `id` already fired or was cancelled. O(pending) linear
  // scan — this runs at save time only, never on the hot path.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::uint32_t>>
  pending_key(EventId id) const {
    const std::uint32_t index = slot_of(id);
    const auto generation = static_cast<std::uint32_t>(id);
    if (index >= slot_count_) return std::nullopt;
    const Slot& slot = chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
    if (slot.state != SlotState::kPending || slot.generation != generation) {
      return std::nullopt;
    }
    std::optional<std::pair<std::int64_t, std::uint32_t>> key;
    for_each_node(*this, [&](const Node& node) {
      if (node.slot == index) key = std::make_pair(node.at_ms, node.seq);
    });
    return key;
  }

  // Restore protocol: begin_restore() wipes the queue and pins the clock,
  // each component re-registers its events with schedule_rebuilt(), and
  // finish_restore() reinstates the sequence counter after proving every
  // saved event came back. Stale EventId members left over from the fresh
  // construction are simply overwritten — never cancel() them.
  void begin_restore(const KernelCheckpoint& ckpt) {
    heap_.clear();
    for (Lane& lane : lanes_) lane.head = lane.size = 0;
    chunks_.clear();
    slot_count_ = 0;
    free_head_ = kNoSlot;
    live_count_ = 0;
    now_ = SimTime{ckpt.now_ms};
    events_executed_ = ckpt.events_executed;
    restore_ = ckpt;
    restoring_ = true;
  }

  // Re-registers one saved event under its exact saved key. Components
  // rebuild in section order, not sequence order, so the keys arrive
  // unsorted and always go to the heap, which orders them.
  template <typename F>
  EventId schedule_rebuilt(std::int64_t at_ms, std::uint32_t seq, F&& fn) {
    if (!restoring_) {
      throw snapshot::SnapshotError(snapshot::SnapshotErrc::kStateMismatch,
                                    "schedule_rebuilt outside restore",
                                    "kernel");
    }
    if (at_ms < now_.millis_since_epoch() || seq >= restore_.next_seq) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotErrc::kStateMismatch,
          "rebuild record key (" + std::to_string(at_ms) + ", " +
              std::to_string(seq) + ") outside the checkpoint's horizon",
          "kernel");
    }
    const EventId id = emplace(std::forward<F>(fn));
    heap_push(Node{at_ms, seq, slot_of(id)});
    return id;
  }

  void finish_restore() {
    if (!restoring_) {
      throw snapshot::SnapshotError(snapshot::SnapshotErrc::kStateMismatch,
                                    "finish_restore outside restore",
                                    "kernel");
    }
    restoring_ = false;
    next_seq_ = restore_.next_seq;
    if (live_count_ != restore_.live_events) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotErrc::kStateMismatch,
          "rebuilt " + std::to_string(live_count_) +
              " event(s), checkpoint recorded " +
              std::to_string(restore_.live_events),
          "kernel");
    }
  }

 private:
  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct Slot {
    InlineCallback fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    SlotState state = SlotState::kFree;
  };

  // POD queue node; sift operations and lane pushes move these 16 bytes,
  // never callbacks. `seq` is a 32-bit rolling tie-breaker: when it would
  // wrap, every pending node is renumbered in place, preserving the exact
  // (time, scheduling-order) relation — see renumber_sequences().
  struct Node {
    std::int64_t at_ms;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  // A delay lane: a FIFO ring (power-of-two capacity) of the nodes
  // scheduled `delay_ms` after the then-current time, in scheduling order,
  // which is (time, seq) order. Bound while it holds a node; the ring's
  // capacity is kept when it drains and rebinds.
  struct Lane {
    std::vector<Node> ring;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::int64_t delay_ms = 0;

    [[nodiscard]] std::uint32_t mask() const {
      return static_cast<std::uint32_t>(ring.size() - 1);
    }
    [[nodiscard]] Node& at(std::uint32_t i) {
      return ring[(head + i) & mask()];
    }
    [[nodiscard]] const Node& front() const { return ring[head]; }

    void push(const Node& node) {
      if (size == ring.size()) {
        // Grow to twice the capacity, unrolling the ring to start at 0.
        std::vector<Node> grown(ring.empty() ? 8 : 2 * ring.size());
        for (std::uint32_t i = 0; i < size; ++i) grown[i] = at(i);
        ring = std::move(grown);
        head = 0;
      }
      at(size++) = node;
    }

    Node pop() {
      const Node node = ring[head];
      head = (head + 1) & mask();
      if (--size == 0) head = 0;  // drained: the lane is unbound
      return node;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kMaxSeq = 0xffffffffu;
  // 256 slots x ~64 B = one 16 KiB chunk; chunks are never moved or freed
  // until the Simulation dies, so Slot& stays valid across callbacks.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  // Lane count: a station's periodic delays (60 s tick, 30 min sample,
  // 1 h) plus one lane that rebinds among the rarer delays.
  static constexpr std::size_t kLanes = 4;
  // step()'s deadline: later than any event.
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  static bool earlier(const Node& a, const Node& b) {
    if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
    return a.seq < b.seq;
  }

  // Builds `fn` in a fresh pending slot and returns the event's id; the
  // caller queues a node for slot_of(id).
  template <typename F>
  EventId emplace(F&& fn) {
    const std::uint32_t index = acquire_slot();
    Slot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));
    slot.state = SlotState::kPending;
    ++live_count_;
    return (std::uint64_t{index} << 32) | slot.generation;
  }

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  // Queues `node`, scheduled `delay_ms` from now: in the lane bound to that
  // delay, else in an empty lane it binds, else in the heap.
  void push_node(const Node& node, std::int64_t delay_ms) {
    Lane* empty = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.size == 0) {
        if (empty == nullptr) empty = &lane;
      } else if (lane.delay_ms == delay_ms) {
        lane.push(node);
        return;
      }
    }
    if (empty == nullptr) {
      heap_push(node);
      return;
    }
    empty->delay_ms = delay_ms;
    empty->push(node);
  }

  // Pops the earliest queued node (live or tombstone) — the smaller of the
  // heap top and the lane heads — into `out`, unless every queue is empty
  // or that node is due after `deadline_ms`.
  bool pop_earliest(std::int64_t deadline_ms, Node& out) {
    Lane* first = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.size != 0 &&
          (first == nullptr || earlier(lane.front(), first->front()))) {
        first = &lane;
      }
    }
    if (!heap_.empty() &&
        (first == nullptr || earlier(heap_.front(), first->front()))) {
      if (heap_.front().at_ms > deadline_ms) return false;
      out = heap_pop();
      return true;
    }
    if (first == nullptr || first->front().at_ms > deadline_ms) return false;
    out = first->pop();
    return true;
  }

  // Runs a popped node's event, or frees its slot if it is a tombstone;
  // returns whether an event ran.
  bool dispatch(const Node& node) {
    Slot& slot = slot_at(node.slot);
    if (slot.state == SlotState::kCancelled) {
      free_slot(node.slot, slot);
      return false;
    }
    now_ = SimTime{node.at_ms};
    ++events_executed_;
    --live_count_;
    // Mark free *before* invoking so a self-cancel is a no-op, but keep
    // the slot off the free list until after: the callback may schedule
    // (slot addresses are chunk-stable, so `slot` stays valid) and must
    // not be handed its own still-occupied slot.
    slot.state = SlotState::kFree;
    slot.fn.invoke_and_reset();
    slot.next_free = free_head_;
    free_head_ = node.slot;
    return true;
  }

  // Visits every queued node of `self` (a Simulation, const or not), heap
  // first, then each lane head to tail.
  template <typename Self, typename Visit>
  static void for_each_node(Self& self, Visit&& visit) {
    for (auto& node : self.heap_) visit(node);
    for (auto& lane : self.lanes_) {
      for (std::uint32_t i = 0; i < lane.size; ++i) {
        visit(lane.ring[(lane.head + i) & lane.mask()]);
      }
    }
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    std::uint32_t index = free_head_;
    if (index != kNoSlot) {
      free_head_ = slot_at(index).next_free;
    } else {
      index = slot_count_++;
      if ((index & (kChunkSize - 1)) == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
    }
    ++slot_at(index).generation;  // invalidate ids from any prior use
    return index;
  }

  void free_slot(std::uint32_t index, Slot& slot) {
    slot.state = SlotState::kFree;
    slot.next_free = free_head_;
    free_head_ = index;
  }

  // 4-ary implicit heap: hole-based sift (the inserted/last node is held in
  // a register and written once), half the levels of a binary heap, and the
  // four children of a node share at most two cache lines.
  void heap_push(Node node) {
    std::size_t child = heap_.size();
    heap_.push_back(node);  // reserve the space; value overwritten below
    while (child > 0) {
      const std::size_t parent = (child - 1) / 4;
      if (!earlier(node, heap_[parent])) break;
      heap_[child] = heap_[parent];
      child = parent;
    }
    heap_[child] = node;
  }

  Node heap_pop() {
    const Node top = heap_.front();
    const Node last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size != 0) {
      std::size_t parent = 0;
      while (true) {
        const std::size_t first = 4 * parent + 1;
        if (first >= size) break;
        const std::size_t end = first + 4 < size ? first + 4 : size;
        std::size_t smallest = first;
        for (std::size_t i = first + 1; i < end; ++i) {
          if (earlier(heap_[i], heap_[smallest])) smallest = i;
        }
        if (!earlier(heap_[smallest], last)) break;
        heap_[parent] = heap_[smallest];
        parent = smallest;
      }
      heap_[parent] = last;
    }
    return top;
  }

  // Re-packs every pending node's tie-break sequence number into 1..n, in
  // one global (time, seq) order over the heap and the lanes. The mapping
  // is strictly order-preserving, so the heap stays a valid heap, every
  // lane stays sorted and the execution order is unchanged. Amortized cost
  // ~0: once every 2^32 - 1 scheduled events.
  void renumber_sequences() {
    std::vector<Node*> nodes;
    for_each_node(*this, [&](Node& node) { nodes.push_back(&node); });
    std::sort(nodes.begin(), nodes.end(),
              [](const Node* a, const Node* b) {
                return earlier(*a, *b);
              });
    std::uint32_t seq = 1;
    for (Node* node : nodes) node->seq = seq++;
    next_seq_ = seq;
  }

  SimTime now_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::size_t live_count_ = 0;
  std::vector<Node> heap_;  // pending nodes without a lane (4-ary heap)
  std::array<Lane, kLanes> lanes_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  KernelCheckpoint restore_{};  // horizon while restoring_
  bool restoring_ = false;
};

// Saves or restores one component-owned pending event through a snapshot
// archive (the standard way to write a rebuild record — see
// docs/SNAPSHOT.md). The record is a live flag, then the event's exact
// queued (at_ms, seq) key when live. On save: `id` (nullopt = nothing
// scheduled) is recorded and, if still pending, counted in
// ar.rebuild_records so the fleet save can prove every live event is
// accounted for. On restore: re-registers `rebuild` under the saved key,
// or resets `id`. `rebuild` is any void() callable; it is only consumed on
// the load path.
template <class Archive, typename F>
void persist_pending(Archive& ar, Simulation& sim, std::optional<EventId>& id,
                     F&& rebuild) {
  if constexpr (Archive::kIsSaver) {
    std::optional<std::pair<std::int64_t, std::uint32_t>> key;
    if (id.has_value()) key = sim.pending_key(*id);
    const bool live = key.has_value();
    ar.value(live);
    if (live) {
      ar.value(key->first);
      ar.value(key->second);
      ++ar.rebuild_records;
    }
  } else {
    bool live = false;
    ar.value(live);
    if (live) {
      std::int64_t at_ms = 0;
      std::uint32_t seq = 0;
      ar.value(at_ms);
      ar.value(seq);
      id = sim.schedule_rebuilt(at_ms, seq, std::forward<F>(rebuild));
    } else {
      id.reset();
    }
  }
}

// Same record for a plain EventId member; a record that was not live
// restores as the null id (generations start at 1, so 0 never matches).
template <class Archive, typename F>
void persist_pending(Archive& ar, Simulation& sim, EventId& id, F&& rebuild) {
  std::optional<EventId> held{id};
  persist_pending(ar, sim, held, std::forward<F>(rebuild));
  id = held.value_or(EventId{0});
}

}  // namespace gw::sim
