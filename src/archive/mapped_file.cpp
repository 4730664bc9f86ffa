#include "archive/mapped_file.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OBSCORR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace obscorr::archive {

#ifdef OBSCORR_HAVE_MMAP
struct MappedFile::Mapping {
  void* addr = nullptr;
  std::size_t length = 0;
  ~Mapping() {
    if (addr != nullptr) ::munmap(addr, length);
  }
};
#else
struct MappedFile::Mapping {};
#endif

namespace {

std::vector<std::byte> read_whole_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  OBSCORR_REQUIRE(is.is_open(), "archive: cannot open " + path);
  const std::streamoff size = is.tellg();
  OBSCORR_REQUIRE(size >= 0, "archive: cannot stat " + path);
  std::vector<std::byte> buffer(static_cast<std::size_t>(size));
  is.seekg(0);
  if (!buffer.empty()) {
    is.read(reinterpret_cast<char*>(buffer.data()), size);
    OBSCORR_REQUIRE(is.good(), "archive: short read of " + path);
  }
  return buffer;
}

std::vector<std::byte> read_file_range(const std::string& path, std::size_t offset,
                                       std::size_t length) {
  std::ifstream is(path, std::ios::binary);
  OBSCORR_REQUIRE(is.is_open(), "archive: cannot open " + path);
  is.seekg(static_cast<std::streamoff>(offset));
  std::vector<std::byte> buffer(length);
  if (!buffer.empty()) {
    is.read(reinterpret_cast<char*>(buffer.data()), static_cast<std::streamsize>(length));
    OBSCORR_REQUIRE(is.good(), "archive: short read of " + path);
  }
  return buffer;
}

}  // namespace

MappedFile MappedFile::open(const std::string& path, bool allow_mmap) {
  MappedFile file;
#ifdef OBSCORR_HAVE_MMAP
  if (allow_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    OBSCORR_REQUIRE(fd >= 0, "archive: cannot open " + path);
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const auto length = static_cast<std::size_t>(st.st_size);
      if (length == 0) {
        ::close(fd);
        return file;  // empty file: empty span, nothing to map
      }
      void* addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (addr != MAP_FAILED) {
        file.mapping_ = std::make_shared<Mapping>();
        file.mapping_->addr = addr;
        file.mapping_->length = length;
        file.bytes_ = {static_cast<const std::byte*>(addr), length};
        return file;
      }
      // fall through to the streaming fallback on mmap failure
    } else {
      ::close(fd);
    }
  }
#else
  (void)allow_mmap;
#endif
  file.buffer_ = std::make_shared<std::vector<std::byte>>(read_whole_file(path));
  file.bytes_ = {file.buffer_->data(), file.buffer_->size()};
  return file;
}

MappedFile MappedFile::open_range(const std::string& path, std::size_t offset,
                                  std::size_t length) {
  MappedFile file;
  if (length == 0) return file;
#ifdef OBSCORR_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  OBSCORR_REQUIRE(fd >= 0, "archive: cannot open " + path);
  struct stat st{};
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  if (regular && static_cast<std::uint64_t>(st.st_size) >= offset + length) {
    // mmap offsets must be page-aligned; map from the enclosing page
    // boundary and expose exactly the requested window.
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t slop = offset % page;
    const std::size_t map_length = length + slop;
    void* addr = ::mmap(nullptr, map_length, PROT_READ, MAP_PRIVATE, fd,
                        static_cast<off_t>(offset - slop));
    ::close(fd);
    if (addr != MAP_FAILED) {
      file.mapping_ = std::make_shared<Mapping>();
      file.mapping_->addr = addr;
      file.mapping_->length = map_length;
      file.bytes_ = {static_cast<const std::byte*>(addr) + slop, length};
      return file;
    }
    // fall through to the streaming fallback on mmap failure
  } else {
    ::close(fd);
    OBSCORR_REQUIRE(regular, "archive: cannot stat " + path);
    OBSCORR_REQUIRE(false, "archive: " + path + " shorter than the requested range");
  }
#endif
  file.buffer_ = std::make_shared<std::vector<std::byte>>(read_file_range(path, offset, length));
  file.bytes_ = {file.buffer_->data(), file.buffer_->size()};
  return file;
}

}  // namespace obscorr::archive
