#pragma once
/// \file anon_cache.hpp
/// Flat open-addressing memoization cache for CryptoPAN anonymization.
///
/// Every captured packet anonymizes two addresses, and at telescope scale
/// almost every lookup is a hit (a 2^22-packet window touches ~2^20
/// distinct addresses but 2^23 lookups). `std::unordered_map` pays a
/// node dereference per probe; this cache is a single contiguous array of
/// (key, value) slots probed linearly from a multiplicative hash, so the
/// hit path is one or two cache lines with no pointer chasing.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace obscorr::telescope {

/// Open-addressing u32 -> u32 hash map specialized for the anonymization
/// hot path: insert-only, linear probing, grown at 50% load.
class AnonCache {
 public:
  explicit AnonCache(std::size_t min_capacity = 1 << 16);

  /// Pointer to the value for `key`, or nullptr when absent. The pointer
  /// is invalidated by the next insert.
  const std::uint32_t* find(std::uint32_t key) const;

  /// Insert a fresh mapping; `key` must not already be present.
  void insert(std::uint32_t key, std::uint32_t value);

  /// Number of stored mappings (distinct addresses seen).
  std::size_t size() const { return size_; }

  /// Hint that `key` will be probed shortly: pulls the probe-start slot
  /// (and its occupancy byte) toward the cache. Batched ingest loops call
  /// this a few packets ahead so the table's random-access misses overlap
  /// with the packets in between; it never changes what `find` returns.
  void prefetch(std::uint32_t key) const {
    const std::size_t i = probe_start(key);
    __builtin_prefetch(&used_[i]);
    __builtin_prefetch(&slots_[i]);
  }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t value = 0;
  };

  std::size_t probe_start(std::uint32_t key) const {
    // Fibonacci multiplicative hash of the 32-bit key over the table size.
    return static_cast<std::size_t>((key * std::uint64_t{0x9E3779B97F4A7C15}) >> 32) & mask_;
  }
  void grow();

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;  // slots_.size() - 1 (power of two)
  std::size_t size_ = 0;
};

}  // namespace obscorr::telescope
