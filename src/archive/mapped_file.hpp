#pragma once
/// \file mapped_file.hpp
/// Read-only file mapping for the archive's zero-copy query path. On
/// POSIX hosts the whole entry log is mmap'd once and every MatrixView
/// serves spans straight out of the page cache — the "analyze years of
/// archived captures without deserializing them" access pattern of the
/// paper's supercomputing-center store. Where mmap is unavailable or
/// fails, the file is read into an owned buffer instead: same spans, one
/// extra copy, identical results. `archive::read_matrix_file` always
/// reads into a buffer (a mapping dies with SIGBUS when another process
/// rewrites the file).

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace obscorr::archive {

/// An immutable byte view of a whole file, mmap-backed when possible.
class MappedFile {
 public:
  /// Map (or read) `path`; throws std::invalid_argument when the file
  /// cannot be opened. `allow_mmap=false` reads it into an owned buffer.
  static MappedFile open(const std::string& path, bool allow_mmap = true);

  /// Map (or read) exactly `[offset, offset + length)` of `path` — the
  /// live-archive refresh path, which maps only the newly appended tail
  /// of the entry log instead of remapping the whole file. Page
  /// alignment of the mmap offset is handled internally; `bytes()` spans
  /// exactly the requested range. Throws when the file is shorter than
  /// `offset + length`; reads the range into a buffer when mmap fails.
  static MappedFile open_range(const std::string& path, std::size_t offset, std::size_t length);

  MappedFile() = default;
  MappedFile(MappedFile&&) noexcept = default;
  MappedFile& operator=(MappedFile&&) noexcept = default;

  std::span<const std::byte> bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

  /// True when the view is served by mmap rather than an owned buffer.
  bool mapped() const { return mapping_ != nullptr; }

 private:
  struct Mapping;  // owns the mmap region; unmaps on destruction

  std::span<const std::byte> bytes_;
  std::shared_ptr<Mapping> mapping_;       // mmap path
  std::shared_ptr<std::vector<std::byte>> buffer_;  // fallback path
};

}  // namespace obscorr::archive
