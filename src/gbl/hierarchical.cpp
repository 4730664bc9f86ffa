#include "gbl/hierarchical.hpp"

#include "common/error.hpp"
#include "gbl/coo.hpp"

namespace obscorr::gbl {

HierarchicalAccumulator::HierarchicalAccumulator(int block_log2, ThreadPool& pool)
    : block_packets_(1ULL << block_log2), pool_(pool) {
  OBSCORR_REQUIRE(block_log2 >= 4 && block_log2 <= 30, "block_log2 must be in [4,30]");
  pending_.reserve(block_packets_);
}

void HierarchicalAccumulator::add_packet(Index src, Index dst) {
  pending_.push_back(pack_key(src, dst));
  ++packets_;
  if (pending_.size() == block_packets_) seal_block();
}

void HierarchicalAccumulator::add_packets(std::span<const std::uint64_t> keys) {
  packets_ += keys.size();
  while (!keys.empty()) {
    const std::size_t room = static_cast<std::size_t>(block_packets_) - pending_.size();
    const std::size_t take = std::min(room, keys.size());
    pending_.insert(pending_.end(), keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(take));
    keys = keys.subspan(take);
    if (pending_.size() == block_packets_) seal_block();
  }
}

void HierarchicalAccumulator::seal_block() {
  if (pending_.empty()) return;
  // Sort in place and fold straight into the block matrix: the pending
  // buffer keeps its capacity and is recycled by every block of every
  // window — sealing allocates nothing beyond the matrix.
  sort_packed_keys(pending_);
  DcsrMatrix block = DcsrMatrix::from_sorted_packed_keys(pending_);
  pending_.clear();
  carry(std::move(block), 0);
}

void HierarchicalAccumulator::carry(DcsrMatrix block, int level) {
  // Binary carry: a second block at `level` merges and propagates upward.
  if (levels_.size() <= static_cast<std::size_t>(level)) {
    levels_.resize(static_cast<std::size_t>(level) + 1);
  }
  auto& slot = levels_[static_cast<std::size_t>(level)];
  if (slot.empty()) {
    slot.push_back(std::move(block));
    return;
  }
  DcsrMatrix merged = DcsrMatrix::ewise_add(slot.back(), block, pool_);
  ++merges_;
  slot.clear();
  carry(std::move(merged), level + 1);
}

DcsrMatrix HierarchicalAccumulator::finish() {
  seal_block();
  DcsrMatrix result;
  bool have_result = false;
  for (auto& slot : levels_) {
    if (slot.empty()) continue;
    if (!have_result) {
      result = std::move(slot.back());
      have_result = true;
    } else {
      result = DcsrMatrix::ewise_add(result, slot.back(), pool_);
      ++merges_;
    }
    slot.clear();
  }
  levels_.clear();
  packets_ = 0;
  return result;
}

}  // namespace obscorr::gbl
