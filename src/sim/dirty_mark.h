// DirtyMark: lets a barrier drain visit only the worlds that produced
// output.
//
// A sharded world's coordinator drains per-world outbound ledgers at every
// window barrier (station::ShardedFleet). Most worlds push nothing in most
// windows, so each world carries one DirtyMark: the first push into any of
// its outbound ledgers appends the world's index to its shard's dirty
// list, and later pushes see the mark and do nothing. Only the worker
// advancing that shard appends to the list, and the coordinator reads it
// after the pool join at the barrier, so it needs no lock and no atomic
// (docs/PARALLELISM.md, "Barrier drain").
#pragma once

#include <cstddef>
#include <vector>

namespace gw::sim {

class DirtyMark {
 public:
  // Enrolls world `index` in `list` (its shard's dirty list) already
  // marked, so the first drain visits it whatever ran before.
  void attach(std::vector<std::size_t>& list, std::size_t index) {
    list_ = &list;
    index_ = index;
    marked_ = true;
    list.push_back(index);
  }

  // The push side: enrolls the world once per drain.
  // gw::context(worker)
  void mark() {
    if (marked_) return;
    marked_ = true;
    list_->push_back(index_);
  }

  // The drain took the world off its list; the next push re-enrolls it.
  // gw::context(coordinator)
  void unmark() { marked_ = false; }

 private:
  std::vector<std::size_t>* list_ = nullptr;
  std::size_t index_ = 0;
  bool marked_ = false;
};

}  // namespace gw::sim
