/// Arena semantics the kernels lean on: bump alignment and disjointness,
/// O(1) epoch-stamped reset that recycles the same storage, stack-scoped
/// Frame rewinds (including nesting, as under thread-pool help-drain
/// re-entry), geometric region growth, and — under ASan — poisoning of
/// rewound ranges so use-after-reset reports like a heap bug.

#include "common/arena.hpp"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/asan.hpp"

#if defined(OBSCORR_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace obscorr::mem {
namespace {

bool aligned(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  std::byte* a = static_cast<std::byte*>(arena.allocate(13, 1));
  std::byte* b = static_cast<std::byte*>(arena.allocate(64, 64));
  std::byte* c = static_cast<std::byte*>(arena.allocate(1, 4096));
  EXPECT_TRUE(aligned(b, 64));
  EXPECT_TRUE(aligned(c, 4096));
  // Quantum rounding keeps consecutive allocations at least 8 apart.
  EXPECT_GE(b - a, 16);
  EXPECT_GE(c - b, 64);
  // Writes to each block stay in their own block.
  std::memset(a, 0xAA, 13);
  std::memset(b, 0xBB, 64);
  std::memset(c, 0xCC, 1);
  EXPECT_EQ(std::to_integer<int>(a[0]), 0xAA);
  EXPECT_EQ(std::to_integer<int>(b[0]), 0xBB);
  EXPECT_EQ(std::to_integer<int>(c[0]), 0xCC);
}

TEST(ArenaTest, AllocSpanIsTypedAndWritable) {
  Arena arena;
  std::span<std::uint64_t> s = arena.alloc_span<std::uint64_t>(1000);
  ASSERT_EQ(s.size(), 1000u);
  EXPECT_TRUE(aligned(s.data(), alignof(std::uint64_t)));
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = i;
  EXPECT_EQ(s[999], 999u);
  EXPECT_GE(arena.bytes_in_use(), 8000u);
}

TEST(ArenaTest, ResetRecyclesStorageAndBumpsEpoch) {
  Arena arena;
  const std::uint64_t e0 = arena.epoch();
  void* first = arena.allocate(256);
  const std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  EXPECT_EQ(arena.epoch(), e0 + 1);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Same capacity retained, same bytes handed back out.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  void* again = arena.allocate(256);
  EXPECT_EQ(again, first);
}

TEST(ArenaTest, FrameRewindsToItsMark) {
  Arena arena;
  void* outer = arena.allocate(64);
  const std::size_t in_use = arena.bytes_in_use();
  void* inner_first = nullptr;
  {
    const Arena::Frame frame(arena);
    inner_first = arena.allocate(512);
    arena.allocate(512);
    EXPECT_GT(arena.bytes_in_use(), in_use);
  }
  EXPECT_EQ(arena.bytes_in_use(), in_use);
  // The frame's storage is recycled; the outer allocation is untouched.
  EXPECT_EQ(arena.allocate(512), inner_first);
  EXPECT_NE(outer, inner_first);
}

TEST(ArenaTest, NestedFramesComposeLikeHelpDrainReentry) {
  // The thread pool's help-draining can re-enter an arena-using kernel on
  // the same thread; each nesting level must rewind only its own frame.
  Arena arena;
  const Arena::Frame outer(arena);
  void* a = arena.allocate(128);
  const std::size_t outer_use = arena.bytes_in_use();
  {
    const Arena::Frame inner(arena);
    arena.allocate(4096);
    {
      const Arena::Frame innermost(arena);
      arena.allocate(1 << 18);  // forces region growth mid-nest
    }
    EXPECT_GT(arena.bytes_in_use(), outer_use);
  }
  EXPECT_EQ(arena.bytes_in_use(), outer_use);
  std::memset(a, 0x5A, 128);  // outer allocation still valid
  EXPECT_EQ(std::to_integer<int>(static_cast<std::byte*>(a)[127]), 0x5A);
}

TEST(ArenaTest, GrowsAcrossRegionsAndKeepsThemOnReset) {
  Arena arena(/*first_region_bytes=*/1 << 16);
  // Far more than one region's worth, in chunks that straddle boundaries.
  std::vector<std::span<std::uint32_t>> spans;
  for (int i = 0; i < 64; ++i) spans.push_back(arena.alloc_span<std::uint32_t>(10'000));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i][0] = static_cast<std::uint32_t>(i);
    spans[i][9'999] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i][0], i);
    EXPECT_EQ(spans[i][9'999], i);
  }
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, 64 * 40'000u);
  arena.reset();
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // regions survive reset
  // The recycled arena serves the same total again without growing.
  for (int i = 0; i < 64; ++i) arena.alloc_span<std::uint32_t>(10'000);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, HighWaterTracksPeakNotCurrent) {
  Arena arena;
  arena.allocate(1 << 12);
  const std::size_t peak = arena.bytes_in_use();
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GE(arena.high_water(), peak);
  arena.allocate(64);
  EXPECT_GE(arena.high_water(), peak);  // monotone
}

TEST(ArenaTest, ScratchArenaIsPerThreadAndReusable) {
  Arena& a = scratch_arena();
  Arena& b = scratch_arena();
  EXPECT_EQ(&a, &b);
  const Arena::Frame frame(a);
  std::span<std::uint64_t> s = a.alloc_span<std::uint64_t>(16);
  s[0] = 42;
  EXPECT_EQ(s[0], 42u);
}

TEST(ArenaTest, PeakRssIsReportedOnSupportedPlatforms) {
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

#if defined(OBSCORR_ASAN)
TEST(ArenaTest, ResetPoisonsRewoundRange) {
  Arena arena;
  void* p = arena.allocate(256);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  arena.reset();
  // Use-after-reset must trip ASan exactly like a heap use-after-free.
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  void* again = arena.allocate(256);
  EXPECT_EQ(again, p);
  EXPECT_FALSE(__asan_address_is_poisoned(again));
}

TEST(ArenaTest, FramePopPoisonsOnlyItsOwnRange) {
  Arena arena;
  void* outer = arena.allocate(64);
  void* inner = nullptr;
  {
    const Arena::Frame frame(arena);
    inner = arena.allocate(128);
  }
  EXPECT_FALSE(__asan_address_is_poisoned(outer));
  EXPECT_TRUE(__asan_address_is_poisoned(inner));
}
#endif

}  // namespace
}  // namespace obscorr::mem
