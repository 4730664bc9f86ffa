#include "telescope/anon_cache.hpp"

#include <bit>

#include "common/error.hpp"

namespace obscorr::telescope {

AnonCache::AnonCache(std::size_t min_capacity) {
  OBSCORR_REQUIRE(min_capacity >= 2, "AnonCache: capacity must be at least 2");
  const std::size_t capacity = std::bit_ceil(min_capacity);
  slots_.resize(capacity);
  used_.assign(capacity, 0);
  mask_ = capacity - 1;
}

const std::uint32_t* AnonCache::find(std::uint32_t key) const {
  for (std::size_t i = probe_start(key); used_[i]; i = (i + 1) & mask_) {
    if (slots_[i].key == key) return &slots_[i].value;
  }
  return nullptr;
}

void AnonCache::insert(std::uint32_t key, std::uint32_t value) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  std::size_t i = probe_start(key);
  while (used_[i]) {
    OBSCORR_INVARIANT(slots_[i].key != key);  // insert-only: no overwrites
    i = (i + 1) & mask_;
  }
  slots_[i] = {key, value};
  used_[i] = 1;
  ++size_;
}

void AnonCache::grow() {
  std::vector<Slot> old_slots(2 * slots_.size());
  std::vector<std::uint8_t> old_used(old_slots.size(), 0);
  old_slots.swap(slots_);
  old_used.swap(used_);
  mask_ = slots_.size() - 1;
  for (std::size_t i = 0; i < old_slots.size(); ++i) {
    if (!old_used[i]) continue;
    std::size_t j = probe_start(old_slots[i].key);
    while (used_[j]) j = (j + 1) & mask_;
    slots_[j] = old_slots[i];
    used_[j] = 1;
  }
}

}  // namespace obscorr::telescope
