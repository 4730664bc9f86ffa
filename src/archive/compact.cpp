#include "archive/compact.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <string_view>
#include <vector>

#include "archive/codec.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

namespace obscorr::archive {

namespace {

/// Window index of a "window/<w>/..." entry name, or -1.
std::int64_t window_index(std::string_view name) {
  constexpr std::string_view prefix = "window/";
  if (name.substr(0, prefix.size()) != prefix) return -1;
  const std::string_view rest = name.substr(prefix.size());
  std::uint64_t w = 0;
  const auto [end, err] = std::from_chars(rest.data(), rest.data() + rest.size(), w);
  if (err != std::errc{} || end == rest.data() + rest.size() || *end != '/') return -1;
  return static_cast<std::int64_t>(w);
}

std::string_view as_chars(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

CompactStats compact_archive(const std::string& dir, const CompactOptions& opts,
                             ThreadPool& pool) {
  const obs::Span span("archive.compact", [&] { return dir; });
  const ArchiveReader reader(dir);
  const std::vector<EntryInfo>& entries = reader.entries();

  // The raw tier boundary: windows within keep_recent of the newest
  // stay raw. Window count comes from the catalog itself so a partial
  // (resumed) archive tiers correctly too.
  std::int64_t max_window = -1;
  for (const EntryInfo& e : entries) {
    max_window = std::max(max_window, window_index(e.name));
  }
  const std::int64_t raw_from =
      opts.compress_all ? max_window + 1
                        : max_window + 1 - static_cast<std::int64_t>(opts.keep_recent);

  // Encode every raw entry outside the hot tail that the codec has a
  // layout for, as pool tasks, the largest first; each container lands
  // in its entry's slot and is held until it is appended.
  std::vector<std::size_t> eligible;
  std::vector<std::uint64_t> costs;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const EntryInfo& e = entries[i];
    const std::int64_t w = window_index(e.name);
    if ((e.flags & kEntryFlagCompressed) != 0 || (w >= 0 && w >= raw_from) ||
        !codec::has_layout(e.name)) {
      continue;
    }
    eligible.push_back(i);
    costs.push_back(e.size);
  }
  std::vector<std::optional<std::string>> encoded(entries.size());
  parallel_claim(pool, costs, [&](std::size_t c) {
    const EntryInfo& e = entries[eligible[c]];
    const obs::Span encode("archive.encode", [&] { return e.name; });
    encoded[eligible[c]] = codec::compress_entry(e.name, reader.payload(e.name).bytes);
  });

  // Append in catalogue order on this thread, so the log and the
  // manifest are the same bytes at every pool size.
  ArchiveWriter writer(dir, reader.generation() + 1);
  CompactStats stats;
  stats.generation = writer.generation();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const EntryInfo& e = entries[i];
    stats.entries_total += 1;
    stats.raw_bytes += e.raw_size;
    stats.stored_bytes_before += e.size;
    if (e.flags & kEntryFlagCompressed) {
      // Already compressed: copy the stored container through verbatim
      // (no decode/re-encode cycle; its frame CRC is recomputed, its
      // bytes are not touched).
      writer.add_entry_compressed(e.name, as_chars(reader.stored_payload(e.name)),
                                  e.raw_size);
      stats.entries_compressed += 1;
    } else if (encoded[i]) {
      writer.add_entry_compressed(e.name, *encoded[i], e.raw_size);
      stats.entries_compressed += 1;
    } else {
      writer.add_entry(e.name, as_chars(reader.payload(e.name).bytes));
    }
  }
  for (const EntryInfo& e : writer.entries()) stats.stored_bytes_after += e.size;
  writer.finalize(reader.scenario_hash());

  // The new manifest is committed; superseded generation logs are now
  // unreachable. Deletion is best-effort — a leftover log is dead weight
  // the next compaction will also try to clear, never a correctness
  // problem.
  const std::string keep = log_file_name(writer.generation());
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    const std::string file = de.path().filename().string();
    const bool is_log = file == kEntryLogName ||
                        (file.rfind("entries.", 0) == 0 &&
                         file.size() > 4 && file.substr(file.size() - 4) == ".dat");
    if (is_log && file != keep) std::filesystem::remove(de.path(), ec);
  }
  return stats;
}

}  // namespace obscorr::archive
