#pragma once
/// \file arena.hpp
/// Bump/region arena with epoch-stamped reset for per-window scratch.
///
/// The hot kernels (radix sort, carry merge) need short-lived scratch —
/// a scatter buffer and histograms per sealed block, a merged-row table
/// per ewise_add — whose lifetime is exactly one call. Round-tripping
/// malloc for them re-faults megabytes per window; the arena bump-
/// allocates out of regions it keeps instead, so the same warm pages
/// serve every block of every window.
///
/// Lifecycle: allocations only move a cursor forward; `reset()` (or a
/// `Frame` popping) rewinds it and bumps the arena epoch — O(1), nothing
/// is freed, the next cycle reuses the same bytes. Pointers from an
/// earlier epoch are invalid; under ASan the rewound range is poisoned,
/// so use-after-reset reports like a heap error (common/asan.hpp).
///
/// `Frame` is the stack-discipline reset: it restores the cursor to its
/// construction mark on destruction. Kernels open a frame around their
/// scratch so nested uses compose — important because the thread pool's
/// help-draining can re-enter an arena-using kernel on the same thread
/// mid-`parallel_for`; a bare reset there would pull allocations out from
/// under the outer caller, a frame cannot. The rule for code that shares
/// an arena with nested pool work: take all arena allocations *before*
/// spawning the nested work, inside a frame.
///
/// Arenas are single-owner (not thread-safe); `scratch_arena()` hands
/// each thread its own.

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace obscorr::mem {

/// Region-backed bump allocator. Regions are 4096-byte-aligned heap
/// blocks that grow geometrically (powers of two); they are only
/// returned on destruction.
class Arena {
 public:
  /// Size of the first region; later regions double.
  static constexpr std::size_t kDefaultRegionBytes = std::size_t{1} << 16;  // 64 KiB

  explicit Arena(std::size_t first_region_bytes = kDefaultRegionBytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (power of two, <= 4096),
  /// valid until the enclosing frame pops or `reset()` runs.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  /// Uninitialized span of `count` Ts. The element type must be
  /// trivially destructible — nothing runs at reset.
  template <typename T>
  std::span<T> alloc_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> && std::is_trivially_copyable_v<T>,
                  "arena spans are released without destructors");
    return {static_cast<T*>(allocate(count * sizeof(T), alignof(T))), count};
  }

  /// Rewind everything and start epoch + 1. O(1); regions are kept.
  void reset();

  /// Current epoch: increments on every reset and frame pop. Allocations
  /// from an earlier epoch must not be touched.
  std::uint64_t epoch() const { return epoch_; }

  /// Bytes currently allocated (rounded to the arena's 8-byte quantum).
  std::size_t bytes_in_use() const { return in_use_; }

  /// Bytes of region capacity held.
  std::size_t bytes_reserved() const;

  /// Largest bytes_in_use ever seen.
  std::size_t high_water() const { return high_water_; }

  /// Stack-scoped rewind: restores the arena cursor (and poisons the
  /// abandoned range under ASan) on destruction.
  class Frame {
   public:
    explicit Frame(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
    ~Frame() { arena_.rewind(mark_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    struct Mark {
      std::size_t region;
      std::size_t offset;
      std::size_t in_use;
    };
    friend class Arena;

    Arena& arena_;
    Mark mark_;
  };

 private:
  struct Region {
    std::byte* base = nullptr;
    std::size_t capacity = 0;
  };

  Frame::Mark mark() const { return {region_, offset_, in_use_}; }
  void rewind(const Frame::Mark& mark);
  void* allocate_slow(std::size_t bytes);

  std::vector<Region> regions_;
  std::size_t region_ = 0;  ///< index of the region the cursor is in
  std::size_t offset_ = 0;  ///< bump offset within regions_[region_]
  std::size_t first_region_bytes_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t epoch_ = 1;
};

/// This thread's kernel-scratch arena (thread_local). The gbl
/// sort/merge kernels draw their scratch here inside frames.
Arena& scratch_arena();

/// Peak resident set size of the process in bytes (getrusage); 0 when
/// the platform doesn't report it. Surfaced by `--timing`.
std::size_t peak_rss_bytes();

}  // namespace obscorr::mem
