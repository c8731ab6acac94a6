// Byte archive for the snapshot layer: one symmetric persist protocol.
//
// Every persistable class implements a single template member
//
//   template <class Archive> void persist(Archive& ar) { ar.value(x_); ... }
//
// instantiated with Saver (serialise) and Loader (restore). One function for
// both directions means the field list can never drift between save and
// load — the classic cause of silently-corrupt checkpoints. Direction-
// dependent work (rebuilding scheduled events, cross-checks) branches on
// `if constexpr (Archive::kIsSaver)`.
//
// The encoding is deliberately platform-independent and boring:
//   * integers: 8-byte little-endian two's complement, whatever the width;
//   * bool: one byte (0/1); enums: their underlying integer;
//   * double: IEEE-754 bit pattern as a little-endian u64;
//   * std::string: u64 length + raw bytes;
//   * vector/deque/map/optional/pair/array: size/flag prefix + elements;
//   * util::Rng: the full RngState (xoshiro words + construction seed);
//   * quantity types (Volts, Watts, ...): their double; Bytes: its count;
//     sim::SimTime / sim::Duration: their millisecond int64 (detected
//     structurally — this layer sits below sim and never includes it);
//   * anything else: its own persist() member, recursively.
//
// The byte order and widths live in util/byte_io.h, shared with the GWSNAP
// container, the probe frames and the MSP schedule image. A Loader that
// runs out of payload throws SnapshotError(kSectionUnderrun) immediately —
// short reads never yield zero-filled state.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/error.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace gw::snapshot {

namespace detail {

// sim::Duration / sim::SimTime, detected structurally so this layer does
// not depend on sim (which sits above it in the DAG).
template <class T>
concept DurationLike = requires(const T& t) {
  { t.millis() } -> std::convertible_to<std::int64_t>;
} && std::constructible_from<T, std::int64_t>;

template <class T>
concept TimePointLike = requires(const T& t) {
  { t.millis_since_epoch() } -> std::convertible_to<std::int64_t>;
} && std::constructible_from<T, std::int64_t>;

// util::Bytes and friends: an integer count.
template <class T>
concept CountLike = requires(const T& t) {
  { t.count() } -> std::convertible_to<std::int64_t>;
} && std::constructible_from<T, std::int64_t> && !DurationLike<T> &&
    !TimePointLike<T>;

// util::Quantity descendants (Volts, Watts, ...): a double value.
template <class T>
concept QuantityLike = requires(const T& t) {
  { t.value() } -> std::convertible_to<double>;
} && std::constructible_from<T, double> && !CountLike<T> &&
    !DurationLike<T> && !TimePointLike<T>;

}  // namespace detail

class Saver {
 public:
  static constexpr bool kIsSaver = true;

  // Component-owned rebuild records written so far (sim::persist_pending
  // bumps this); the fleet save cross-checks it against the kernel's live
  // event count to prove the snapshot accounts for every pending event.
  std::size_t rebuild_records = 0;

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

  template <class T>
  void value(const T& v) {
    using D = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<D, bool>) {
      bytes_.push_back(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<D>) {
      util::put_i64(bytes_, std::int64_t(
          static_cast<std::underlying_type_t<D>>(v)));
    } else if constexpr (std::is_integral_v<D>) {
      util::put_i64(bytes_, static_cast<std::int64_t>(v));
    } else if constexpr (std::is_floating_point_v<D>) {
      util::put_f64(bytes_, double(v));
    } else if constexpr (std::is_same_v<D, std::string>) {
      util::put_u64(bytes_, v.size());
      bytes_.insert(bytes_.end(), v.begin(), v.end());
    } else if constexpr (std::is_same_v<D, util::Rng>) {
      const util::RngState s = v.state();
      for (const std::uint64_t word : s.words) util::put_u64(bytes_, word);
      util::put_u64(bytes_, s.seed);
    } else if constexpr (detail::DurationLike<D>) {
      util::put_i64(bytes_, std::int64_t(v.millis()));
    } else if constexpr (detail::TimePointLike<D>) {
      util::put_i64(bytes_, std::int64_t(v.millis_since_epoch()));
    } else if constexpr (detail::CountLike<D>) {
      util::put_i64(bytes_, std::int64_t(v.count()));
    } else if constexpr (detail::QuantityLike<D>) {
      util::put_f64(bytes_, double(v.value()));
    } else {
      // Persistable class; const_cast lets one persist() serve both
      // directions (the saver never mutates through it).
      const_cast<D&>(v).persist(*this);
    }
  }

  template <class T>
  void value(const std::vector<T>& v) {
    util::put_u64(bytes_, v.size());
    for (const T& item : v) value(item);
  }

  template <class T>
  void value(const std::deque<T>& v) {
    util::put_u64(bytes_, v.size());
    for (const T& item : v) value(item);
  }

  template <class K, class V>
  void value(const std::map<K, V>& v) {
    util::put_u64(bytes_, v.size());
    for (const auto& [key, item] : v) {
      value(key);
      value(item);
    }
  }

  template <class T>
  void value(const std::optional<T>& v) {
    value(v.has_value());
    if (v.has_value()) value(*v);
  }

  template <class A, class B>
  void value(const std::pair<A, B>& v) {
    value(v.first);
    value(v.second);
  }

  template <class T, std::size_t N>
  void value(const std::array<T, N>& v) {
    for (const T& item : v) value(item);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Loader {
 public:
  static constexpr bool kIsSaver = false;

  explicit Loader(std::span<const std::uint8_t> payload) : in_(payload) {}

  template <class T>
  void value(T& v) {
    using D = std::remove_cvref_t<T>;
    if constexpr (std::is_same_v<D, bool>) {
      v = need(in_.take_u8(), 1) != 0;
    } else if constexpr (std::is_enum_v<D>) {
      v = static_cast<D>(static_cast<std::underlying_type_t<D>>(i64()));
    } else if constexpr (std::is_integral_v<D>) {
      v = static_cast<D>(i64());
    } else if constexpr (std::is_floating_point_v<D>) {
      v = static_cast<D>(f64());
    } else if constexpr (std::is_same_v<D, std::string>) {
      const std::uint64_t n = u64();
      const std::span<const std::uint8_t> raw = need(in_.take(n), n);
      v.assign(raw.begin(), raw.end());
    } else if constexpr (std::is_same_v<D, util::Rng>) {
      util::RngState s;
      for (std::uint64_t& word : s.words) word = u64();
      s.seed = u64();
      v.restore_state(s);
    } else if constexpr (detail::DurationLike<D> ||
                         detail::TimePointLike<D> || detail::CountLike<D>) {
      v = D{i64()};
    } else if constexpr (detail::QuantityLike<D>) {
      v = D{f64()};
    } else {
      v.persist(*this);
    }
  }

  template <class T>
  void value(std::vector<T>& v) {
    const std::uint64_t n = u64();
    v.clear();
    // A count read from damaged or drifted payload can be anything; cap
    // the reserve at the bytes left so a lie underruns (typed) instead of
    // throwing bad_alloc. Elements of non-empty types take at least a byte.
    v.reserve(std::size_t(std::min<std::uint64_t>(n, in_.remaining())));
    for (std::uint64_t i = 0; i < n; ++i) {
      T item{};
      value(item);
      v.push_back(std::move(item));
    }
  }

  template <class T>
  void value(std::deque<T>& v) {
    const std::uint64_t n = u64();
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      T item{};
      value(item);
      v.push_back(std::move(item));
    }
  }

  template <class K, class V>
  void value(std::map<K, V>& v) {
    const std::uint64_t n = u64();
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      value(key);
      V item{};
      value(item);
      v.emplace(std::move(key), std::move(item));
    }
  }

  template <class T>
  void value(std::optional<T>& v) {
    bool present = false;
    value(present);
    if (present) {
      v.emplace();
      value(*v);
    } else {
      v.reset();
    }
  }

  template <class A, class B>
  void value(std::pair<A, B>& v) {
    value(v.first);
    value(v.second);
  }

  template <class T, std::size_t N>
  void value(std::array<T, N>& v) {
    for (T& item : v) value(item);
  }

  [[nodiscard]] std::size_t remaining() const { return in_.remaining(); }

  // A persist() must consume its section exactly; leftover bytes mean the
  // payload and the code disagree about the field list.
  void expect_end() const {
    if (in_.remaining() != 0) {
      throw SnapshotError(SnapshotErrc::kTrailingBytes,
                          std::to_string(in_.remaining()) +
                              " unread byte(s) after persist()");
    }
  }

 private:
  // Unwraps one read of `n` bytes, or throws kSectionUnderrun.
  template <class T>
  T need(std::optional<T> got, std::uint64_t n) const {
    if (!got) underrun(n);
    return *got;
  }

  [[noreturn]] void underrun(std::uint64_t n) const {
    throw SnapshotError(SnapshotErrc::kSectionUnderrun,
                        "read of " + std::to_string(n) + " byte(s) with " +
                            std::to_string(in_.remaining()) + " left");
  }

  std::uint64_t u64() { return need(in_.take_u64(), 8); }
  std::int64_t i64() { return need(in_.take_i64(), 8); }
  double f64() { return need(in_.take_f64(), 8); }

  util::ByteReader in_;
};

}  // namespace gw::snapshot
