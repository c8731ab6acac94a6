#include "snapshot/state_writer.h"

#include <algorithm>

#include "util/crc32.h"

namespace gw::snapshot {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t x) {
  out.push_back(std::uint8_t(x));
  out.push_back(std::uint8_t(x >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(x >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(x >> (8 * i)));
}

// Strict cursor over the raw container bytes; all reads are bounds-checked
// against kTruncated (the archive Loader's underrun error is for *payload*
// reads, which have their own section context).
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::span<const std::uint8_t> take(std::uint64_t n,
                                                   const char* what) {
    if (n > data_.size() - pos_) {
      throw SnapshotError(SnapshotErrc::kTruncated,
                          std::string("stream ends inside ") + what);
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::uint16_t take_u16(const char* what) {
    const auto raw = take(2, what);
    return std::uint16_t(raw[0] | (std::uint16_t(raw[1]) << 8));
  }

  [[nodiscard]] std::uint32_t take_u32(const char* what) {
    const auto raw = take(4, what);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= std::uint32_t(raw[std::size_t(i)]) << (8 * i);
    return x;
  }

  [[nodiscard]] std::uint64_t take_u64(const char* what) {
    const auto raw = take(8, what);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= std::uint64_t(raw[std::size_t(i)]) << (8 * i);
    return x;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t left() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

std::uint32_t pairs_fingerprint(const std::vector<Section>& sections) {
  std::vector<std::uint8_t> digest_input;
  for (const Section& section : sections) {
    digest_input.insert(digest_input.end(), section.name.begin(),
                        section.name.end());
    put_u32(digest_input, section.crc);
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
  put_u16(out, kFormatVersion);
  put_u32(out, std::uint32_t(sections_.size()));
  for (const Pending& section : sections_) {
    put_u16(out, std::uint16_t(section.name.size()));
    out.insert(out.end(), section.name.begin(), section.name.end());
    put_u64(out, section.payload.size());
    put_u32(out, util::crc32(section.payload));
    out.insert(out.end(), section.payload.begin(), section.payload.end());
  }
  put_u32(out, util::crc32(out));
  return out;
}

StateReader::StateReader(std::span<const std::uint8_t> bytes) {
  // The file CRC covers everything before itself; check it first so every
  // later diagnostic is about *structure*, not random bit damage.
  if (bytes.size() < kMagic.size()) {
    throw SnapshotError(SnapshotErrc::kBadMagic, "stream shorter than magic");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    throw SnapshotError(SnapshotErrc::kBadMagic, "not a GWSNAP stream");
  }
  Cursor cursor(bytes);
  (void)cursor.take(kMagic.size(), "magic");
  version_ = cursor.take_u16("format version");
  if (version_ != kFormatVersion) {
    throw SnapshotError(SnapshotErrc::kBadVersion,
                        "format version " + std::to_string(version_) +
                            ", this build speaks " +
                            std::to_string(kFormatVersion));
  }
  const std::uint32_t count = cursor.take_u32("section count");
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Section section;
    const std::uint16_t name_len = cursor.take_u16("section name length");
    const auto name_raw = cursor.take(name_len, "section name");
    section.name.assign(name_raw.begin(), name_raw.end());
    const std::uint64_t payload_len = cursor.take_u64("section length");
    section.crc = cursor.take_u32("section crc");
    const auto payload = cursor.take(payload_len, "section payload");
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
  const std::size_t body_end = cursor.pos();
  const std::uint32_t file_crc = cursor.take_u32("file crc");
  if (cursor.left() != 0) {
    throw SnapshotError(SnapshotErrc::kTrailingBytes,
                        std::to_string(cursor.left()) +
                            " byte(s) after the file CRC");
  }
  if (util::crc32(bytes.subspan(0, body_end)) != file_crc) {
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
