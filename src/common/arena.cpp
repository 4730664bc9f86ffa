#include "common/arena.hpp"

#include <algorithm>
#include <bit>
#include <new>

#include "common/asan.hpp"
#include "common/error.hpp"
#include "obs/telemetry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace obscorr::mem {

namespace {

/// Allocation quantum: sizes and the cursor round to 8 bytes so ASan's
/// shadow granules never straddle two live allocations.
constexpr std::size_t kQuantum = 8;

/// Alignment of every region base, and so the largest alignment
/// `allocate` honours.
constexpr std::size_t kRegionAlignment = 4096;

constexpr std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

void note_arena_alloc(std::size_t bytes) {
  if (!obs::counters_enabled()) return;
  static obs::Counter& total = obs::counter("mem.arena_bytes");
  total.add(bytes);
}

void note_arena_reset(std::size_t high_water) {
  if (!obs::counters_enabled()) return;
  static obs::Counter& resets = obs::counter("mem.arena_resets");
  static obs::Gauge& high = obs::gauge("mem.arena_high_water");
  resets.add(1);
  high.record_max(high_water);
}

}  // namespace

Arena::Arena(std::size_t first_region_bytes)
    : first_region_bytes_(std::max(first_region_bytes, kQuantum)) {}

Arena::~Arena() {
  for (const Region& r : regions_) {
    OBSCORR_ASAN_UNPOISON(r.base, r.capacity);
    ::operator delete(r.base, std::align_val_t{kRegionAlignment});
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  OBSCORR_REQUIRE(align != 0 && (align & (align - 1)) == 0 && align <= kRegionAlignment,
                  "Arena::allocate: alignment must be a power of two <= 4096");
  bytes = round_up(std::max<std::size_t>(bytes, 1), kQuantum);
  align = std::max(align, kQuantum);
  void* p = nullptr;
  if (region_ < regions_.size()) {
    // Region bases are page-aligned, so aligning the offset aligns the
    // pointer.
    const std::size_t at = round_up(offset_, align);
    if (at + bytes <= regions_[region_].capacity) {
      p = regions_[region_].base + at;
      offset_ = at + bytes;
    }
  }
  if (p == nullptr) p = allocate_slow(bytes);
  in_use_ += bytes;
  high_water_ = std::max(high_water_, in_use_);
  OBSCORR_ASAN_UNPOISON(p, bytes);
  note_arena_alloc(bytes);
  return p;
}

void* Arena::allocate_slow(std::size_t bytes) {
  // Try the regions already past the cursor (left over from a larger
  // earlier cycle); each starts page-aligned, satisfying any alignment.
  while (region_ + 1 < regions_.size()) {
    ++region_;
    offset_ = 0;
    if (bytes <= regions_[region_].capacity) {
      offset_ = bytes;
      return regions_[region_].base;
    }
  }
  // Grow: geometric doubling, rounded up to a power of two.
  const std::size_t last = regions_.empty() ? first_region_bytes_ / 2 : regions_.back().capacity;
  const std::size_t capacity = std::bit_ceil(std::max(bytes, last * 2));
  Region r;
  r.base = static_cast<std::byte*>(::operator new(capacity, std::align_val_t{kRegionAlignment}));
  r.capacity = capacity;
  OBSCORR_ASAN_POISON(r.base, r.capacity);
  regions_.push_back(r);
  region_ = regions_.size() - 1;
  offset_ = bytes;
  return r.base;
}

void Arena::rewind(const Frame::Mark& mark) {
#if defined(OBSCORR_ASAN)
  // Poison everything past the mark: the mark region's tail plus every
  // region the cursor moved through since (re-poisoning an already
  // poisoned tail is harmless).
  for (std::size_t r = mark.region; r <= region_ && r < regions_.size(); ++r) {
    const std::size_t from = r == mark.region ? round_up(mark.offset, kQuantum) : 0;
    OBSCORR_ASAN_POISON(regions_[r].base + from, regions_[r].capacity - from);
  }
#endif
  region_ = mark.region;
  offset_ = mark.offset;
  in_use_ = mark.in_use;
  ++epoch_;
  note_arena_reset(high_water_);
}

void Arena::reset() { rewind(Frame::Mark{0, 0, 0}); }

std::size_t Arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const Region& r : regions_) total += r.capacity;
  return total;
}

Arena& scratch_arena() {
  thread_local Arena arena;
  return arena;
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace obscorr::mem
