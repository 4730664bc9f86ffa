#pragma once
/// \file telescope.hpp
/// The darknet telescope simulator: the CAIDA-style Internet observatory.
///
/// The instrument monitors a routed darkspace prefix. Incoming packets
/// pass a validity filter (destination inside the darkspace, source not
/// in a known-legitimate prefix — the real telescope discards the small
/// amount of legitimate traffic), are CryptoPAN-anonymized, and stream
/// into a hierarchical hypersparse GraphBLAS accumulator in blocks of
/// 2^block_log2 valid packets, exactly the paper's matrix-construction
/// pipeline. Because CryptoPAN is prefix-preserving, the anonymized
/// darkspace is still a single /len prefix and quadrant partitioning
/// (Fig. 1) keeps working on anonymized data.
///
/// The telescope retains the anonymization dictionary so that, inside the
/// paper's trusted-sharing framework (§I, approach 1), observed source
/// ids can be "sent back to the source" for deanonymization during
/// cross-observatory correlation.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ipv4.hpp"
#include "common/packet.hpp"
#include "common/thread_pool.hpp"
#include "crypt/cryptopan.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/hierarchical.hpp"
#include "telescope/anon_cache.hpp"

namespace obscorr::telescope {

/// Telescope instrument configuration.
struct TelescopeConfig {
  /// The monitored darkspace (the paper's is a /8; simulations scale it
  /// with the window size to keep per-address density realistic).
  Ipv4Prefix darkspace{Ipv4(77, 0, 0, 0), 16};
  /// Source prefixes whose traffic is considered legitimate and dropped.
  std::vector<Ipv4Prefix> legit_prefixes{Ipv4Prefix(Ipv4(10, 0, 0, 0), 8)};
  /// log2 of the GraphBLAS leaf block (paper: 2^17 packets).
  int block_log2 = 17;
  /// CryptoPAN key seed (the telescope operator's secret).
  std::uint64_t cryptopan_seed = 0xCA1DA;
};

class ShardCapture;

/// Streaming darknet capture into one constant-packet window.
class Telescope {
 public:
  Telescope(TelescopeConfig config, ThreadPool& pool);

  const TelescopeConfig& config() const { return config_; }

  /// Offer one packet; returns true when it was valid and captured. The
  /// per-packet reference `capture_block` is tested against — every
  /// production capture goes through `capture_block`.
  bool capture(const Packet& packet);

  /// Offer a batch of packets: filter, anonymize (flat memoization
  /// cache), and append the packed (src, dst) keys to the accumulator in
  /// one pass with no per-packet function boundary. Returns the number
  /// of valid packets captured; the rest were discarded. Equivalent to
  /// calling `capture` per packet.
  std::uint64_t capture_block(std::span<const Packet> packets);

  /// Valid packets captured in the current window.
  std::uint64_t valid_packets() const { return window_.accumulator.packets(); }

  /// Packets discarded by the validity filter so far (across windows).
  std::uint64_t discarded_packets() const { return window_.discarded; }

  /// Deanonymization-dictionary entries (anon -> original) accumulated
  /// so far — the trusted-exchange state the paper's sharing framework
  /// rests on. Persists across windows, grows monotonically.
  std::size_t dictionary_entries() const { return window_.dictionary.size(); }

  /// Distinct addresses memoized by the anonymization cache.
  std::size_t anon_cache_entries() const { return window_.anon_cache.size(); }

  /// Close the window: the anonymized ext->int traffic matrix. Resets
  /// the window state; the anonymization dictionary persists.
  gbl::DcsrMatrix finish_window();

  /// Anonymize an address with the telescope's key (memoized; CryptoPAN
  /// costs 32 AES calls per fresh address).
  Ipv4 anonymize(Ipv4 addr) const;

  /// Trusted-exchange deanonymization: inverts `anonymize` for addresses
  /// this telescope has anonymized before; throws for unknown ids.
  Ipv4 deanonymize(Ipv4 anon) const;

  /// The anonymized image of the darkspace prefix (prefix preservation
  /// keeps it a single prefix of the same length).
  Ipv4Prefix anonymized_darkspace() const;

  /// Fold a shard capture context back into this telescope: its
  /// deanonymization dictionary entries and its discard counter. The
  /// shard's matrix is taken separately via `ShardCapture::finish`.
  /// Absorption order does not matter — dictionary entries from any two
  /// shards of the same telescope agree on shared addresses (CryptoPAN
  /// is a pure function of the key), and discard counts are summed.
  void absorb(ShardCapture&& shard);

 private:
  friend class ShardCapture;

  /// The mutable state of one capture context: the telescope's own
  /// window holds one, and so does every `ShardCapture`.
  struct Context {
    Context(int block_log2, ThreadPool& pool) : accumulator(block_log2, pool) {}

    gbl::HierarchicalAccumulator accumulator;
    std::uint64_t discarded = 0;
    mutable AnonCache anon_cache;  // original -> anon (hot, flat open addressing)
    mutable std::unordered_map<std::uint32_t, std::uint32_t> dictionary;  // anon -> original
    std::vector<std::uint64_t> batch_keys;  // capture_block scratch (capacity reused)
  };

  bool is_valid(const Packet& packet) const;
  std::uint32_t anonymize_value(std::uint32_t addr) const;

  /// The filter/anonymize/pack loop behind both public `capture_block`s,
  /// run against `ctx`'s state with this telescope's filter and key.
  std::uint64_t capture_into(Context& ctx, std::span<const Packet> packets) const;

  TelescopeConfig config_;
  crypt::CryptoPan cryptopan_;
  Context window_;
};

/// Capture context for one generation shard (or a worker's run of
/// consecutive shards) of a telescope window. Shares the telescope's
/// const configuration and CryptoPAN key — anonymization is a pure
/// function of the key, so independent per-shard memoization caches
/// always agree — but owns its accumulator, caches, and counters, so
/// concurrent shard captures never synchronize. When done, take the
/// shard matrix with `finish` and fold the bookkeeping back with
/// `Telescope::absorb`; summing the shard matrices in any grouping
/// reproduces the single-context window matrix exactly (packet counts
/// are exact small integers, so the aggregation is order-free).
class ShardCapture {
 public:
  ShardCapture(const Telescope& scope, ThreadPool& pool);

  /// Filter, anonymize, and accumulate a batch; returns valid packets.
  /// Same semantics as `Telescope::capture_block`, against shard state.
  std::uint64_t capture_block(std::span<const Packet> packets);

  /// Valid packets captured by this shard context so far.
  std::uint64_t valid_packets() const { return ctx_.accumulator.packets(); }

  /// Packets discarded by the validity filter in this shard context.
  std::uint64_t discarded_packets() const { return ctx_.discarded; }

  /// Collapse this context's accumulator into its shard matrix.
  gbl::DcsrMatrix finish();

 private:
  friend class Telescope;

  const Telescope* scope_;
  Telescope::Context ctx_;
};

}  // namespace obscorr::telescope
