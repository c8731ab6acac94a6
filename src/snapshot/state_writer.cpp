#include "snapshot/state_writer.h"

#include <algorithm>
#include <optional>
#include <string>

#include "util/byte_io.h"
#include "util/crc32.h"

namespace gw::snapshot {

namespace {

// Unwraps one container read, or throws kTruncated naming the field (the
// archive Loader's underrun error is for *payload* reads, which have their
// own section context).
template <class T>
T need(std::optional<T> got, const char* what) {
  if (!got) {
    throw SnapshotError(SnapshotErrc::kTruncated,
                        std::string("stream ends inside ") + what);
  }
  return *got;
}

// The smallest framing one section can take: name length, payload length
// and payload CRC with an empty name and payload.
constexpr std::size_t kMinSectionBytes = 2 + 8 + 4;

std::uint32_t pairs_fingerprint(const std::vector<Section>& sections) {
  std::vector<std::uint8_t> digest_input;
  for (const Section& section : sections) {
    digest_input.insert(digest_input.end(), section.name.begin(),
                        section.name.end());
    util::put_u32(digest_input, section.crc);
  }
  return util::crc32(digest_input);
}

}  // namespace

void StateWriter::section(std::string name,
                          std::vector<std::uint8_t> payload) {
  const bool duplicate =
      std::any_of(sections_.begin(), sections_.end(),
                  [&](const Pending& p) { return p.name == name; });
  if (duplicate) {
    throw SnapshotError(SnapshotErrc::kDuplicateSection,
                        "section written twice", name);
  }
  sections_.push_back(Pending{std::move(name), std::move(payload)});
}

std::vector<std::uint8_t> StateWriter::finish() const {
  std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
  util::put_u16(out, kFormatVersion);
  util::put_u32(out, std::uint32_t(sections_.size()));
  for (const Pending& section : sections_) {
    util::put_u16(out, std::uint16_t(section.name.size()));
    out.insert(out.end(), section.name.begin(), section.name.end());
    util::put_u64(out, section.payload.size());
    util::put_u32(out, util::crc32(section.payload));
    out.insert(out.end(), section.payload.begin(), section.payload.end());
  }
  util::append_crc32_trailer(out);
  return out;
}

StateReader::StateReader(std::span<const std::uint8_t> bytes) {
  // Structure is checked front to back; the file CRC over everything
  // before it is checked last, so a stream with bytes after the trailer
  // reads as kTrailingBytes rather than as a CRC mismatch.
  if (bytes.size() < kMagic.size()) {
    throw SnapshotError(SnapshotErrc::kBadMagic, "stream shorter than magic");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    throw SnapshotError(SnapshotErrc::kBadMagic, "not a GWSNAP stream");
  }
  util::ByteReader in(bytes);
  (void)need(in.take(kMagic.size()), "magic");
  version_ = need(in.take_u16(), "format version");
  if (version_ != kFormatVersion) {
    throw SnapshotError(SnapshotErrc::kBadVersion,
                        "format version " + std::to_string(version_) +
                            ", this build speaks " +
                            std::to_string(kFormatVersion));
  }
  const std::uint32_t count = need(in.take_u32(), "section count");
  // One flipped bit can make the count anything; never reserve more
  // sections than the bytes left could frame.
  sections_.reserve(
      std::min<std::size_t>(count, in.remaining() / kMinSectionBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    Section section;
    const std::uint16_t name_len = need(in.take_u16(), "section name length");
    const auto name_raw = need(in.take(name_len), "section name");
    section.name.assign(name_raw.begin(), name_raw.end());
    const std::uint64_t payload_len = need(in.take_u64(), "section length");
    section.crc = need(in.take_u32(), "section crc");
    const auto payload = need(in.take(payload_len), "section payload");
    section.payload.assign(payload.begin(), payload.end());
    if (util::crc32(section.payload) != section.crc) {
      throw SnapshotError(SnapshotErrc::kSectionCrcMismatch,
                          "payload does not match its CRC", section.name);
    }
    for (const Section& existing : sections_) {
      if (existing.name == section.name) {
        throw SnapshotError(SnapshotErrc::kDuplicateSection,
                            "section appears twice", section.name);
      }
    }
    sections_.push_back(std::move(section));
  }
  (void)need(in.take_u32(), "file crc");
  if (in.remaining() != 0) {
    throw SnapshotError(SnapshotErrc::kTrailingBytes,
                        std::to_string(in.remaining()) +
                            " byte(s) after the file CRC");
  }
  if (!util::strip_crc32_trailer(bytes)) {
    throw SnapshotError(SnapshotErrc::kFileCrcMismatch,
                        "file CRC does not match the stream");
  }
}

const Section* StateReader::find(std::string_view name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Loader StateReader::open(std::string_view name) const {
  const Section* section = find(name);
  if (section == nullptr) {
    throw SnapshotError(SnapshotErrc::kMissingSection,
                        "snapshot has no such section", std::string(name));
  }
  return Loader(section->payload);
}

std::uint32_t StateReader::fingerprint() const {
  return pairs_fingerprint(sections_);
}

std::uint32_t fingerprint(std::span<const std::uint8_t> bytes) {
  return StateReader(bytes).fingerprint();
}

}  // namespace gw::snapshot
