// The one little-endian byte codec behind every binary image in the repo.
//
// The MSP430 schedule image (§IV), the probe radio frames (§V), the
// snapshot archive and the GWSNAP container all encode fixed-width
// little-endian fields, and the sealed ones end in a CRC-32 trailer. This
// header is the single place that decides byte order and width:
//
//   * writer: put_u16/u32/u64 append to a byte vector; put_i64/put_f64 go
//     through std::bit_cast to u64 (two's complement, IEEE-754 bits);
//   * ByteReader: a bounds-checked cursor over a byte span. An underrun
//     returns std::nullopt, consumes nothing and never throws, so each
//     format raises its own typed error (SnapshotError, util::Result);
//   * CRC-32 trailer: append_crc32_trailer seals an image,
//     strip_crc32_trailer verifies the seal and hands back the body.
//
// Everything is inline and allocation-free on the read side: the snapshot
// Loader reads through it on every branch restore.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/crc32.h"

namespace gw::util {

namespace detail {

template <class T>
void put_le(std::vector<std::uint8_t>& out, T x) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(std::uint8_t(x >> (8 * i)));
  }
}

template <class T>
T load_le(std::span<const std::uint8_t> raw) {
  T x = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) x |= T(raw[i]) << (8 * i);
  return x;
}

}  // namespace detail

// --- writer -----------------------------------------------------------------

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t x) {
  detail::put_le(out, x);
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t x) {
  detail::put_le(out, x);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t x) {
  detail::put_le(out, x);
}
inline void put_i64(std::vector<std::uint8_t>& out, std::int64_t x) {
  put_u64(out, std::bit_cast<std::uint64_t>(x));
}
inline void put_f64(std::vector<std::uint8_t>& out, double x) {
  put_u64(out, std::bit_cast<std::uint64_t>(x));
}

// --- reader -----------------------------------------------------------------

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  // The next `n` bytes, or nullopt (nothing consumed) when fewer remain.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> take(
      std::uint64_t n) {
    if (n > remaining()) return std::nullopt;
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::optional<std::uint8_t> take_u8() {
    return take_le<std::uint8_t>();
  }
  [[nodiscard]] std::optional<std::uint16_t> take_u16() {
    return take_le<std::uint16_t>();
  }
  [[nodiscard]] std::optional<std::uint32_t> take_u32() {
    return take_le<std::uint32_t>();
  }
  [[nodiscard]] std::optional<std::uint64_t> take_u64() {
    return take_le<std::uint64_t>();
  }
  [[nodiscard]] std::optional<std::int64_t> take_i64() {
    const auto x = take_u64();
    if (!x) return std::nullopt;
    return std::bit_cast<std::int64_t>(*x);
  }
  [[nodiscard]] std::optional<double> take_f64() {
    const auto x = take_u64();
    if (!x) return std::nullopt;
    return std::bit_cast<double>(*x);
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  template <class T>
  [[nodiscard]] std::optional<T> take_le() {
    const auto raw = take(sizeof(T));
    if (!raw) return std::nullopt;
    return detail::load_le<T>(*raw);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- CRC-32 trailer ---------------------------------------------------------

// Appends the CRC-32 of every byte in `image` so far, as a little-endian u32.
inline void append_crc32_trailer(std::vector<std::uint8_t>& image) {
  put_u32(image, crc32(image));
}

// The body in front of a valid CRC-32 trailer; nullopt when `sealed` is
// shorter than the trailer or the trailer does not match the body.
[[nodiscard]] inline std::optional<std::span<const std::uint8_t>>
strip_crc32_trailer(std::span<const std::uint8_t> sealed) {
  if (sealed.size() < 4) return std::nullopt;
  const std::span<const std::uint8_t> body =
      sealed.first(sealed.size() - 4);
  if (crc32(body) != detail::load_le<std::uint32_t>(sealed.last(4))) {
    return std::nullopt;
  }
  return body;
}

}  // namespace gw::util
