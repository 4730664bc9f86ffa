#include "telescope/telescope.hpp"

#include "common/error.hpp"
#include "gbl/coo.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::telescope {

namespace {

/// Flush one batch's local tallies into the registry. Local stack
/// counters keep the per-packet loop free of atomics; the single branch
/// on the cached flag is the entire disabled-path cost.
void flush_capture_counters(std::uint64_t valid, std::uint64_t discarded, std::uint64_t hits,
                            std::uint64_t misses, std::uint64_t anonymize_ns) {
  if (!obs::counters_enabled()) return;
  static obs::Counter& valid_packets = obs::counter("telescope.valid_packets");
  static obs::Counter& discarded_packets = obs::counter("telescope.discarded_packets");
  static obs::Counter& cache_hits = obs::counter("telescope.anon_cache_hits");
  static obs::Counter& cache_misses = obs::counter("telescope.anon_cache_misses");
  static obs::Counter& anonymize_time = obs::counter("telescope.anonymize_ns");
  valid_packets.add(valid);
  discarded_packets.add(discarded);
  cache_hits.add(hits);
  cache_misses.add(misses);
  anonymize_time.add(anonymize_ns);
}

/// How many packets ahead the capture loop prefetches anon-cache probe
/// slots. Deep enough to cover the table's DRAM latency with the work on
/// the packets in between, shallow enough to stay inside every batch.
constexpr std::size_t kCachePrefetchAhead = 8;

}  // namespace

Telescope::Telescope(TelescopeConfig config, ThreadPool& pool)
    : config_(std::move(config)),
      cryptopan_(crypt::CryptoPan::from_seed(config_.cryptopan_seed)),
      window_(config_.block_log2, pool) {}

bool Telescope::is_valid(const Packet& packet) const {
  if (!config_.darkspace.contains(packet.dst)) return false;
  for (const Ipv4Prefix& legit : config_.legit_prefixes) {
    if (legit.contains(packet.src)) return false;
  }
  return true;
}

bool Telescope::capture(const Packet& packet) {
  if (!is_valid(packet)) {
    ++window_.discarded;
    return false;
  }
  const std::uint32_t src = anonymize_value(packet.src.value());
  const std::uint32_t dst = anonymize_value(packet.dst.value());
  window_.accumulator.add_packet(src, dst);
  return true;
}

std::uint64_t Telescope::capture_block(std::span<const Packet> packets) {
  return capture_into(window_, packets);
}

std::uint64_t Telescope::capture_into(Context& ctx, std::span<const Packet> packets) const {
  std::vector<std::uint64_t>& keys = ctx.batch_keys;
  keys.clear();
  keys.reserve(packets.size());
  std::uint64_t discarded = 0, hits = 0, misses = 0, anonymize_ns = 0;
  // The CryptoPAN time of cache misses is clocked only under spans (the
  // daemon always arms counters, and a clock read per miss would tax
  // live ingest).
  const bool timed = obs::spans_enabled();
  const auto anonymize = [&](std::uint32_t addr) {
    if (const std::uint32_t* hit = ctx.anon_cache.find(addr)) {
      ++hits;
      return *hit;
    }
    ++misses;
    const std::uint64_t start_ns = timed ? obs::now_ns() : 0;
    const std::uint32_t anon = cryptopan_.anonymize(Ipv4(addr)).value();
    if (timed) anonymize_ns += obs::now_ns() - start_ns;
    ctx.anon_cache.insert(addr, anon);
    ctx.dictionary.emplace(anon, addr);
    return anon;
  };
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i + kCachePrefetchAhead < packets.size()) {
      const Packet& ahead = packets[i + kCachePrefetchAhead];
      ctx.anon_cache.prefetch(ahead.src.value());
      ctx.anon_cache.prefetch(ahead.dst.value());
    }
    const Packet& p = packets[i];
    if (!is_valid(p)) {
      ++discarded;
      continue;
    }
    const std::uint32_t src = anonymize(p.src.value());
    const std::uint32_t dst = anonymize(p.dst.value());
    keys.push_back(gbl::pack_key(src, dst));
  }
  ctx.discarded += discarded;
  ctx.accumulator.add_packets(keys);
  flush_capture_counters(keys.size(), discarded, hits, misses, anonymize_ns);
  return keys.size();
}

gbl::DcsrMatrix Telescope::finish_window() {
  static obs::Counter& merge_ns = obs::counter("telescope.merge_ns");
  const obs::Span span("telescope.finish_window");
  const obs::ScopedNsCounter merge_time(merge_ns);
  return window_.accumulator.finish();
}

std::uint32_t Telescope::anonymize_value(std::uint32_t addr) const {
  if (const std::uint32_t* hit = window_.anon_cache.find(addr)) return *hit;
  const std::uint32_t anon = cryptopan_.anonymize(Ipv4(addr)).value();
  window_.anon_cache.insert(addr, anon);
  window_.dictionary.emplace(anon, addr);
  return anon;
}

Ipv4 Telescope::anonymize(Ipv4 addr) const { return Ipv4(anonymize_value(addr.value())); }

Ipv4 Telescope::deanonymize(Ipv4 anon) const {
  const auto it = window_.dictionary.find(anon.value());
  OBSCORR_REQUIRE(it != window_.dictionary.end(),
                  "deanonymize: id never produced by this telescope: " + anon.to_string());
  return Ipv4(it->second);
}

Ipv4Prefix Telescope::anonymized_darkspace() const {
  // Prefix preservation: the darkspace base maps to the anonymized base
  // of a prefix with identical length.
  const Ipv4 anon_base = cryptopan_.anonymize(config_.darkspace.base());
  return Ipv4Prefix(anon_base, config_.darkspace.length());
}

void Telescope::absorb(ShardCapture&& shard) {
  OBSCORR_REQUIRE(shard.scope_ == this, "absorb: shard belongs to a different telescope");
  window_.discarded += shard.ctx_.discarded;
  window_.dictionary.merge(shard.ctx_.dictionary);
}

ShardCapture::ShardCapture(const Telescope& scope, ThreadPool& pool)
    : scope_(&scope), ctx_(scope.config_.block_log2, pool) {}

std::uint64_t ShardCapture::capture_block(std::span<const Packet> packets) {
  return scope_->capture_into(ctx_, packets);
}

gbl::DcsrMatrix ShardCapture::finish() {
  static obs::Counter& merge_ns = obs::counter("telescope.merge_ns");
  const obs::Span span("telescope.shard_finish");
  const obs::ScopedNsCounter merge_time(merge_ns);
  return ctx_.accumulator.finish();
}

}  // namespace obscorr::telescope
