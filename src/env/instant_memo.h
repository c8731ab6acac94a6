// Single-entry memo keyed on the exact millisecond of the last query.
//
// Every station of a Fleet ticks at the same instant against one shared
// Environment, so each weather model is asked for the same minute once per
// station. The models only change state when a query crosses into a new
// day or hour, which a repeat query at the same t never does: with no
// other query to the model in between, it finds the model exactly as the
// first query left it, draws nothing, and would compute the same value.
// The memo returns that value instead. Any query at another t overwrites
// the entry, and a snapshot load clears it, so a hit is always bitwise
// what the model would have returned. Never persisted (docs/SNAPSHOT.md).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace gw::env {

template <class T>
class InstantMemo {
 public:
  // The value memoised for exactly t, or null.
  [[nodiscard]] const T* find(sim::SimTime t) const {
    return valid_ && ms_ == t.millis_since_epoch() ? &value_ : nullptr;
  }

  T store(sim::SimTime t, T value) {
    valid_ = true;
    ms_ = t.millis_since_epoch();
    value_ = value;
    return value;
  }

  void clear() { valid_ = false; }

 private:
  bool valid_ = false;
  std::int64_t ms_ = 0;
  T value_{};
};

}  // namespace gw::env
