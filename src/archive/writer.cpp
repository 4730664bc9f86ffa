#include "archive/writer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "archive/checksum.hpp"
#include "archive/codec.hpp"
#include "archive/format.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::archive {

namespace {

constexpr std::string_view kFrameMagic = "OBSAENT1";
constexpr std::string_view kFrameMagic2 = "OBSAENT2";
constexpr std::string_view kManifestMagic = "OBSARCH1";
constexpr std::uint32_t kManifestVersion2 = 2;
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint32_t kMaxEntries = 1u << 20;
constexpr std::size_t kFrameHeaderBytes = 32;

std::size_t padded8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Header bytes [magic, name_len, reserved, payload_size, payload_crc]
/// in frame order — the region the header CRC covers (with the name).
std::string frame_header_prefix(std::string_view magic, std::string_view name,
                                std::uint64_t payload_size, std::uint32_t payload_crc) {
  PayloadWriter w;
  w.array(std::span<const char>(magic.data(), magic.size()));
  w.u32(static_cast<std::uint32_t>(name.size()));
  w.u32(0);
  w.u64(payload_size);
  w.u32(payload_crc);
  return w.take();
}

}  // namespace

std::string log_file_name(std::uint32_t generation) {
  if (generation == 0) return kEntryLogName;
  return "entries." + std::to_string(generation) + ".dat";
}

std::string encode_manifest(std::uint64_t scenario_hash, std::uint64_t data_size,
                            std::uint32_t log_crc, std::span<const EntryInfo> entries,
                            std::uint32_t generation) {
  // Version 1 manifests predate compression; emitting them for the
  // shapes they can represent keeps pre-existing archives (notably the
  // committed golden study) byte-identical across this code.
  const bool all_raw = std::all_of(entries.begin(), entries.end(),
                                   [](const EntryInfo& e) { return e.flags == 0; });
  const std::uint32_t version = (generation == 0 && all_raw) ? 1 : kManifestVersion2;
  PayloadWriter w;
  w.array(std::span<const char>(kManifestMagic.data(), kManifestMagic.size()));
  w.u32(version);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  w.u64(scenario_hash);
  w.u64(data_size);
  w.u32(log_crc);
  if (version >= 2) w.u32(generation);
  for (const EntryInfo& e : entries) {
    w.u32(static_cast<std::uint32_t>(e.name.size()));
    w.u32(e.crc32c);
    w.u64(e.offset);
    w.u64(e.size);
    if (version >= 2) {
      w.u32(e.flags);
      w.u64(e.raw_size);
    }
    w.array(std::span<const char>(e.name.data(), e.name.size()));
  }
  std::string bytes = w.take();
  const std::uint32_t crc = crc32c(bytes);
  PayloadWriter tail;
  tail.u32(crc);
  bytes += tail.take();
  return bytes;
}

ParsedManifest read_manifest(const std::string& dir) {
  const std::string manifest_path = dir + "/" + kManifestName;
  OBSCORR_REQUIRE(std::filesystem::is_regular_file(manifest_path),
                  "archive: " + dir + " has no manifest (incomplete or not an archive)");

  // The manifest is small; read it whole and checksum before parsing.
  std::ifstream is(manifest_path, std::ios::binary | std::ios::ate);
  OBSCORR_REQUIRE(is.is_open(), "archive: cannot open manifest in " + dir);
  const auto file_size = static_cast<std::size_t>(is.tellg());
  std::vector<std::byte> data(file_size);
  is.seekg(0);
  if (!data.empty()) {
    is.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  }
  OBSCORR_REQUIRE(is.good() || data.empty(), "archive: cannot read manifest in " + dir);
  const std::span<const std::byte> manifest(data);
  OBSCORR_REQUIRE(manifest.size() >= 8 + 4 + 4 + 8 + 8 + 4 + 4,
                  "archive: manifest truncated in " + dir);
  const std::size_t body_size = manifest.size() - 4;
  PayloadReader tail(manifest.subspan(body_size));
  const std::uint32_t stored_crc = tail.u32();
  OBSCORR_REQUIRE(crc32c(manifest.first(body_size)) == stored_crc,
                  "archive: manifest checksum mismatch in " + dir +
                      " (corrupted or torn manifest)");

  PayloadReader r(manifest.first(body_size));
  const auto magic = r.array<char>(8);
  OBSCORR_REQUIRE(std::string_view(magic.data(), magic.size()) == kManifestMagic,
                  "archive: bad manifest magic in " + dir);
  const std::uint32_t version = r.u32();
  OBSCORR_REQUIRE(version == 1 || version == kManifestVersion2,
                  "archive: unsupported manifest version " + std::to_string(version));
  const std::uint32_t entry_count = r.u32();
  OBSCORR_REQUIRE(entry_count <= kMaxEntries, "archive: implausible entry count");

  ParsedManifest out;
  out.scenario_hash = r.u64();
  out.data_size = r.u64();
  out.log_crc = r.u32();
  if (version >= 2) out.generation = r.u32();
  out.entries.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    EntryInfo e;
    const std::uint32_t name_len = r.u32();
    e.crc32c = r.u32();
    e.offset = r.u64();
    e.size = r.u64();
    if (version >= 2) {
      e.flags = r.u32();
      e.raw_size = r.u64();
      OBSCORR_REQUIRE((e.flags & ~kEntryFlagCompressed) == 0,
                      "archive: unknown entry flags in manifest");
      OBSCORR_REQUIRE(e.flags != 0 || e.raw_size == e.size,
                      "archive: raw entry with mismatched decoded size in manifest");
    } else {
      e.raw_size = e.size;
    }
    OBSCORR_REQUIRE(name_len >= 1 && name_len <= kMaxNameLen,
                    "archive: bad entry name length");
    const auto name = r.array<char>(name_len);
    e.name.assign(name.data(), name.size());
    out.entries.push_back(std::move(e));
  }
  OBSCORR_REQUIRE(r.done(), "archive: trailing bytes in manifest");
  return out;
}

ArchiveWriter::ArchiveWriter(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  OBSCORR_REQUIRE(!ec, "archive: cannot create directory " + dir_);
  // Appends go to the generation the last published manifest names; an
  // absent or unreadable manifest means generation 0 (fresh archive, or
  // a pre-manifest crash — which can only leave a generation-0 log).
  try {
    generation_ = read_manifest(dir_).generation;
  } catch (const std::invalid_argument&) {
    generation_ = 0;
  }
  log_path_ = dir_ + "/" + log_file_name(generation_);
  recover();
}

ArchiveWriter::ArchiveWriter(std::string dir, std::uint32_t generation)
    : dir_(std::move(dir)), generation_(generation) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  OBSCORR_REQUIRE(!ec, "archive: cannot create directory " + dir_);
  log_path_ = dir_ + "/" + log_file_name(generation_);
  // A crashed compaction may have left a stale log at this generation;
  // it was never named by a manifest, so start it over.
  reset();
}

void ArchiveWriter::recover() {
  entries_.clear();
  log_size_ = 0;
  log_crc_ = 0;
  std::ifstream is(log_path_, std::ios::binary | std::ios::ate);
  if (!is.is_open()) return;  // no log yet: fresh archive
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  std::vector<char> data(static_cast<std::size_t>(file_size));
  is.seekg(0);
  if (!data.empty()) is.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (!is.good() && file_size > 0) {
    data.clear();  // unreadable log: treat as empty and rebuild
  }

  // Walk complete frames; stop at the first torn or corrupt one. What
  // was validated stays, everything after is truncated away.
  std::uint64_t pos = 0;
  while (pos + kFrameHeaderBytes <= data.size()) {
    const std::span<const char> head(data.data() + pos, kFrameHeaderBytes);
    const std::string_view magic(head.data(), 8);
    const bool compressed = magic == kFrameMagic2;
    if (!compressed && magic != kFrameMagic) break;
    PayloadReader r(std::as_bytes(head.subspan(8)));
    const std::uint32_t name_len = r.u32();
    const std::uint32_t reserved = r.u32();
    const std::uint64_t payload_size = r.u64();
    const std::uint32_t payload_crc = r.u32();
    const std::uint32_t header_crc = r.u32();
    if (reserved != 0 || name_len == 0 || name_len > kMaxNameLen) break;
    const std::uint64_t name_end = pos + kFrameHeaderBytes + name_len;
    if (name_end > data.size()) break;
    const std::string_view name(data.data() + pos + kFrameHeaderBytes, name_len);
    const std::string covered =
        frame_header_prefix(magic, name, payload_size, payload_crc) + std::string(name);
    if (crc32c(covered) != header_crc) break;
    // Overflow-safe bounds (a hostile log can carry a valid header_crc for
    // any payload_size, so `payload_at + payload_size` must never wrap).
    const std::uint64_t payload_at = padded8(name_end);
    if (payload_at > data.size() || payload_size > data.size() - payload_at) break;
    const std::string_view payload(data.data() + payload_at,
                                   static_cast<std::size_t>(payload_size));
    if (crc32c(payload) != payload_crc) break;
    const std::uint64_t frame_end = padded8(payload_at + payload_size);
    if (frame_end > data.size()) break;
    if (has_entry(name)) break;  // duplicate frames never come from us: corrupt
    std::uint64_t raw_size = payload_size;
    if (compressed) {
      // The container header self-declares the decoded size; a frame
      // whose payload checksums but is not a valid container is corrupt.
      const auto declared = codec::decoded_size(std::as_bytes(
          std::span<const char>(payload.data(), payload.size())));
      if (!declared) break;
      raw_size = *declared;
    }
    entries_.push_back({std::string(name), payload_at, payload_size, payload_crc,
                        compressed ? kEntryFlagCompressed : 0, raw_size});
    pos = frame_end;
  }
  log_size_ = pos;
  log_crc_ = crc32c(std::as_bytes(std::span<const char>(data.data(), pos)));
  if (log_size_ < file_size) {
    std::error_code ec;
    std::filesystem::resize_file(log_path_, log_size_, ec);
    OBSCORR_REQUIRE(!ec, "archive: cannot truncate torn tail of " + log_path_);
  }
}

bool ArchiveWriter::has_entry(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const EntryInfo& e) { return e.name == name; });
}

std::vector<std::byte> ArchiveWriter::read_entry(std::string_view name) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const EntryInfo& e) { return e.name == name; });
  OBSCORR_REQUIRE(it != entries_.end(), "archive: no entry named " + std::string(name));
  std::ifstream is(log_path_, std::ios::binary);
  OBSCORR_REQUIRE(is.is_open(), "archive: cannot open " + log_path_);
  is.seekg(static_cast<std::streamoff>(it->offset));
  std::vector<std::byte> payload(static_cast<std::size_t>(it->size));
  if (!payload.empty()) {
    is.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }
  OBSCORR_REQUIRE(is.good() || payload.empty(), "archive: short read of entry " +
                                                    std::string(name));
  OBSCORR_REQUIRE(crc32c({payload.data(), payload.size()}) == it->crc32c,
                  "archive: checksum mismatch reading back entry " + std::string(name));
  if (it->flags & kEntryFlagCompressed) return codec::decompress_payload(payload);
  return payload;
}

void ArchiveWriter::append_frame(std::string_view magic, std::string_view name,
                                 std::string_view payload, EntryInfo info) {
  OBSCORR_REQUIRE(!name.empty() && name.size() <= kMaxNameLen,
                  "archive: entry name must be 1..4096 bytes");
  OBSCORR_REQUIRE(!has_entry(name), "archive: duplicate entry " + std::string(name));

  static obs::Counter& crc_ns = obs::counter("archive.crc_ns");
  std::uint32_t payload_crc = 0;
  std::uint32_t header_crc = 0;
  std::string prefix;
  {
    const obs::ScopedNsCounter crc_time(crc_ns);
    payload_crc = crc32c(payload);
    prefix = frame_header_prefix(magic, name, payload.size(), payload_crc);
    // The header CRC covers the 28-byte prefix plus the name; it sits as
    // the last 4 bytes of the 32-byte fixed header, before the name bytes.
    header_crc = crc32c(prefix + std::string(name));
  }
  PayloadWriter crc_bytes;
  crc_bytes.u32(header_crc);

  // The frame goes out as three pieces, header, payload and padding, so
  // the payload is written from the caller's buffer without a copy.
  std::string header = prefix + crc_bytes.bytes() + std::string(name);
  header.resize(padded8(header.size()), '\0');
  const std::uint64_t payload_at = log_size_ + header.size();
  constexpr char kZeros[8] = {};
  const std::string_view padding(kZeros, padded8(payload.size()) - payload.size());

  std::ofstream os(log_path_, std::ios::binary | std::ios::app);
  OBSCORR_REQUIRE(os.is_open(), "archive: cannot append to " + log_path_);
  for (const std::string_view piece : {std::string_view(header), payload, padding}) {
    os.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  }
  os.flush();
  OBSCORR_REQUIRE(os.good(), "archive: write failure on " + log_path_);

  const std::uint64_t frame_size = header.size() + payload.size() + padding.size();
  info.name = std::string(name);
  info.offset = payload_at;
  info.size = payload.size();
  info.crc32c = payload_crc;
  entries_.push_back(std::move(info));
  log_size_ += frame_size;
  // The payload was checksummed above; combining its CRC extends the
  // whole-log CRC over it without reading it a second time.
  log_crc_ = crc32c(padding,
                    crc32c_combine(crc32c(header, log_crc_), payload_crc, payload.size()));
  if (obs::counters_enabled()) {
    static obs::Counter& bytes_written = obs::counter("archive.bytes_written");
    static obs::Counter& frames_written = obs::counter("archive.frames_written");
    static obs::Counter& raw_bytes = obs::counter("archive.raw_bytes");
    static obs::Counter& stored_bytes = obs::counter("archive.stored_bytes");
    bytes_written.add(frame_size);
    frames_written.add(1);
    raw_bytes.add(entries_.back().raw_size);
    stored_bytes.add(payload.size());
  }
}

void ArchiveWriter::add_entry(std::string_view name, std::string_view payload) {
  EntryInfo info;
  info.flags = 0;
  info.raw_size = payload.size();
  append_frame(kFrameMagic, name, payload, std::move(info));
}

void ArchiveWriter::add_entry_compressed(std::string_view name, std::string_view stored,
                                         std::uint64_t raw_size) {
  EntryInfo info;
  info.flags = kEntryFlagCompressed;
  info.raw_size = raw_size;
  append_frame(kFrameMagic2, name, stored, std::move(info));
}

void ArchiveWriter::reset() {
  entries_.clear();
  log_size_ = 0;
  log_crc_ = 0;
  std::ofstream os(log_path_, std::ios::binary | std::ios::trunc);
  OBSCORR_REQUIRE(os.is_open(), "archive: cannot reset " + log_path_);
}

void ArchiveWriter::finalize(std::uint64_t scenario_hash) {
  const obs::Span span("archive.finalize", [&] { return dir_; });
  // The whole-log checksum — frame headers and padding included, so
  // readers can detect corruption anywhere in the file — is maintained
  // incrementally as frames are appended (recover() rebuilds it from the
  // validated prefix), so publication never re-reads the log: the live
  // ingest path re-finalizes after every window.
  const std::string manifest =
      encode_manifest(scenario_hash, log_size_, log_crc_, entries_, generation_);
  const std::string final_path = dir_ + "/" + kManifestName;
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    OBSCORR_REQUIRE(os.is_open(), "archive: cannot write " + tmp_path);
    os.write(manifest.data(), static_cast<std::streamsize>(manifest.size()));
    os.flush();
    OBSCORR_REQUIRE(os.good(), "archive: write failure on " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  OBSCORR_REQUIRE(!ec, "archive: cannot commit manifest " + final_path);
}

}  // namespace obscorr::archive
