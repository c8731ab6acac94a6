#include "proto/probe_frames.h"

#include <algorithm>

#include "util/byte_io.h"

namespace gw::proto {
namespace {

constexpr std::uint8_t kSync0 = 0x7e;
constexpr std::uint8_t kSync1 = 0x81;
constexpr std::uint8_t kVersion = 1;

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> wire;
  wire.reserve(kHeaderBytes + frame.payload.size() + kTrailerBytes);
  wire.push_back(kSync0);
  wire.push_back(kSync1);
  wire.push_back(kVersion);
  wire.push_back(std::uint8_t(frame.type));
  util::put_u16(wire, frame.probe_id);
  util::put_u16(wire, std::uint16_t(frame.payload.size()));
  util::put_u32(wire, frame.seq);
  wire.insert(wire.end(), frame.payload.begin(), frame.payload.end());
  util::append_crc32_trailer(wire);
  return wire;
}

util::Result<Frame> decode_frame(std::span<const std::uint8_t> wire) {
  if (wire.size() < kHeaderBytes + kTrailerBytes) {
    return util::make_error("frame: truncated");
  }
  const auto body = util::strip_crc32_trailer(wire);
  if (!body) return util::make_error("frame: crc mismatch");
  // The size check above guarantees the whole header is there.
  util::ByteReader in(*body);
  if (in.take_u8().value() != kSync0 || in.take_u8().value() != kSync1) {
    return util::make_error("frame: bad sync");
  }
  if (in.take_u8().value() != kVersion) {
    return util::make_error("frame: bad version");
  }
  Frame frame;
  frame.type = FrameType(in.take_u8().value());
  frame.probe_id = in.take_u16().value();
  const std::uint16_t length = in.take_u16().value();
  frame.seq = in.take_u32().value();
  if (in.remaining() != length) {
    return util::make_error("frame: length mismatch");
  }
  const auto payload = in.take(length).value();
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

std::vector<std::uint8_t> serialize_reading(const ProbeReading& reading) {
  std::vector<std::uint8_t> payload;
  payload.reserve(std::size_t(kReadingPayload.count()));
  util::put_u16(payload, std::uint16_t(reading.probe_id));
  util::put_u32(payload, reading.seq);
  util::put_i64(payload, reading.sampled_ms);
  util::put_f64(payload, reading.conductivity_us);
  util::put_f64(payload, reading.pressure_kpa);
  util::put_f64(payload, reading.tilt_deg);
  util::put_f64(payload, reading.temperature_c);
  // Pad to the fixed record size (2+4+8+32 = 46 -> 48).
  payload.resize(std::size_t(kReadingPayload.count()), 0);
  return payload;
}

util::Result<ProbeReading> parse_reading(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != std::size_t(kReadingPayload.count())) {
    return util::make_error("reading: wrong payload size");
  }
  // The size check above guarantees every field is there.
  util::ByteReader in(payload);
  ProbeReading reading;
  reading.probe_id = in.take_u16().value();
  reading.seq = in.take_u32().value();
  reading.sampled_ms = in.take_i64().value();
  reading.conductivity_us = in.take_f64().value();
  reading.pressure_kpa = in.take_f64().value();
  reading.tilt_deg = in.take_f64().value();
  reading.temperature_c = in.take_f64().value();
  return reading;
}

std::vector<std::uint8_t> encode_reading_frame(const ProbeReading& reading) {
  Frame frame;
  frame.type = FrameType::kReadingData;
  frame.probe_id = std::uint16_t(reading.probe_id);
  frame.seq = reading.seq;
  frame.payload = serialize_reading(reading);
  return encode_frame(frame);
}

std::vector<std::uint8_t> encode_resend_request(std::uint16_t probe_id,
                                                std::uint32_t seq) {
  Frame frame;
  frame.type = FrameType::kResendRequest;
  frame.probe_id = probe_id;
  frame.seq = seq;
  // Payload: the request window (count=1 for individual re-fetch, §V) and
  // a flags word.
  util::put_u32(frame.payload, 1);
  util::put_u32(frame.payload, 0);
  return encode_frame(frame);
}

std::vector<std::uint8_t> encode_ack(std::uint16_t probe_id,
                                     std::uint32_t seq) {
  Frame frame;
  frame.type = FrameType::kAck;
  frame.probe_id = probe_id;
  frame.seq = seq;
  util::put_u32(frame.payload, 0);  // status word
  return encode_frame(frame);
}

std::vector<std::vector<std::uint8_t>> encode_confirm(
    std::uint16_t probe_id, std::span<const std::uint32_t> seqs) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t offset = 0; offset < seqs.size();
       offset += kMaxSeqsPerConfirm) {
    const std::size_t n =
        std::min(kMaxSeqsPerConfirm, seqs.size() - offset);
    Frame frame;
    frame.type = FrameType::kConfirm;
    frame.probe_id = probe_id;
    frame.seq = std::uint32_t(offset);  // chunk index for idempotency
    util::put_u16(frame.payload, std::uint16_t(n));
    for (std::size_t i = 0; i < n; ++i) {
      util::put_u32(frame.payload, seqs[offset + i]);
    }
    frames.push_back(encode_frame(frame));
  }
  if (frames.empty()) {
    // An empty confirmation is still a frame (keeps the dialogue regular).
    Frame frame;
    frame.type = FrameType::kConfirm;
    frame.probe_id = probe_id;
    util::put_u16(frame.payload, 0);
    frames.push_back(encode_frame(frame));
  }
  return frames;
}

util::Result<std::vector<std::uint32_t>> parse_confirm(const Frame& frame) {
  if (frame.type != FrameType::kConfirm) {
    return util::make_error("confirm: wrong frame type");
  }
  util::ByteReader in(frame.payload);
  const auto n = in.take_u16();
  if (!n) return util::make_error("confirm: truncated payload");
  if (in.remaining() != 4 * std::size_t(*n)) {
    return util::make_error("confirm: count mismatch");
  }
  std::vector<std::uint32_t> seqs;
  seqs.reserve(*n);
  for (std::uint16_t i = 0; i < *n; ++i) {
    seqs.push_back(in.take_u32().value());
  }
  return seqs;
}

std::vector<std::uint8_t> encode_query_pending(std::uint16_t probe_id) {
  Frame frame;
  frame.type = FrameType::kQueryPending;
  frame.probe_id = probe_id;
  return encode_frame(frame);
}

}  // namespace gw::proto
