#pragma once
/// \file population.hpp
/// Ground-truth Internet source population for the simulation.
///
/// The paper's unsolicited-traffic sources (botnets, scanners,
/// backscatter) are modelled as a fixed population with:
///
///  * **Brightness**: packet-rate weights following the Zipf–Mandelbrot
///    rank law w_r ∝ 1/(r+δ)^α — the distribution the paper itself fits
///    to the CAIDA data (Fig. 3), so the telescope recovers it.
///  * **Persistence (the drifting beam)**: monthly activity follows a
///    two-state Markov chain per source. The stay-active probability s is
///    drawn once per source from Beta(a, 1) (density a·s^(a−1)); then
///
///        E[s^k] = a / (a + k)
///
///    so the expected k-month overlap of active sources is *exactly* the
///    paper's modified Cauchy β/(β+|Δt|^α) with α = 1, β = a. A small
///    constant re-activation probability yields the stationary background
///    level the paper observes the correlations flattening onto.
///  * The shape a(d) is brightness-dependent (see `persistence_shape`),
///    producing the Fig. 8 profile where sources near d ≈ 10³ churn
///    fastest (≈50% one-month drop) while bright and dim sources are
///    steadier (≈20%).
///
/// Everything is a pure function of (seed, source index, month index):
/// the telescope and honeyfarm simulators observe one consistent world
/// without sharing mutable state.

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/ipv4.hpp"
#include "common/prng.hpp"

namespace obscorr::netgen {

/// Static per-source ground truth.
struct SourceRecord {
  Ipv4 ip;           ///< unique public address (outside the darkspace)
  double weight = 0.0;   ///< relative packet rate (ZM rank law)
  double persist = 0.0;  ///< monthly stay-active probability s ~ Beta(a,1)
  double rebirth = 0.0;  ///< monthly re-activation probability b
};

/// Population configuration.
struct PopulationConfig {
  std::size_t population = 1 << 17;  ///< number of candidate sources
  double zm_alpha = 1.5;             ///< brightness rank-law exponent
  double zm_delta = 50.0;            ///< brightness rank-law offset
  std::uint64_t log2_nv = 22;        ///< log2 of the telescope window (sets brightness scale)
  double rebirth_prob = 0.07;        ///< background re-activation probability; sets the
                                     ///< stationary activity level (the correlation floor)

  /// Persistence shape extremes: a(d) for bright/dim vs mid sources.
  double persist_shape_stable = 4.0;  ///< a for the brightest and dimmest sources
  double persist_shape_churny = 0.55;  ///< a at the churn dip (d ≈ 10³-equivalent)

  /// Hybrid power-law extension (Devlin et al., IPDPSW 2021 — the
  /// generative-model direction the paper's discussion points to): an
  /// *adversarial* source component with its own rank law layered on the
  /// background population. share = 0 disables it.
  double hybrid_share = 0.0;      ///< fraction of total traffic weight carried by it
  std::size_t hybrid_sources = 0; ///< how many of the first sources belong to it
  double hybrid_alpha = 1.05;     ///< adversarial rank-law exponent (flatter beam)
  double hybrid_delta = 2.0;      ///< adversarial rank-law offset

  /// Botnet-block extension: a fraction of the dimmest sources live in
  /// contiguous /24 blocks whose members activate *together* (an extra
  /// per-block on/off chain gates the members' own chains) — compromised
  /// subnets joining and leaving campaigns as a unit. Because CryptoPAN
  /// preserves prefixes, the block structure survives anonymization and
  /// is visible to `core::analyze_prefixes`. fraction = 0 disables it.
  double botnet_fraction = 0.0;      ///< tail fraction of sources placed in blocks
  std::size_t botnet_block_size = 64;  ///< members per /24 block (<= 256)
  double botnet_block_persist = 0.8; ///< block chain stay-active probability
  double botnet_block_rebirth = 0.25;  ///< block chain re-activation probability

  std::uint64_t seed = 42;
};

/// Brightness-dependent Beta shape a(d): a smooth dip in log2-degree
/// space centred on the paper's fastest-churning brightness (d ≈ 10³ at
/// N_V = 2^30, i.e. log2 d ≈ (2/3)·log2 √N_V), interpolating toward
/// `stable` at both extremes. Exposed for direct unit testing.
double persistence_shape(double expected_degree, const PopulationConfig& config);

/// The simulated world: sources plus their month-by-month activity.
class Population {
 public:
  explicit Population(const PopulationConfig& config);

  const PopulationConfig& config() const { return config_; }
  std::size_t size() const { return sources_.size(); }
  const SourceRecord& source(std::size_t i) const { return sources_[i]; }
  const std::vector<SourceRecord>& sources() const { return sources_; }

  /// Expected packet count of source i in one telescope window of
  /// N_V = 2^log2_nv packets, assuming the full population were active.
  double expected_window_degree(std::size_t i) const;

  /// Expected packet count of source i in a window *given that it is
  /// active*, using the stationary expected active weight: only active
  /// sources share the constant-packet window, so conditional degrees
  /// exceed the full-population ones. This is the brightness coordinate
  /// the visibility model sees.
  double expected_active_degree(std::size_t i) const;

  /// Stationary activity probability of source i (the chain's π).
  double stationary_activity(std::size_t i) const;

  /// Σ w_i·π_i: expected total weight of the active sub-population.
  double active_weight() const { return active_weight_; }

  /// True when `ip` belongs to a population source (used by the
  /// honeyfarm to keep ephemeral noise sources disjoint from the
  /// ground-truth population).
  bool owns_ip(Ipv4 ip) const;

  /// Botnet block id of source i, or -1 for independent sources.
  int block_of(std::size_t i) const;

  /// Number of botnet blocks (0 when the extension is disabled).
  std::size_t block_count() const { return block_count_; }

  /// True when source i is active during month index m (m >= 0 counts
  /// from the start of the study). Evaluated lazily, cached per month,
  /// deterministic in (seed, i, m). Thread-safe: concurrent callers for
  /// any months see one consistent simulation of the activity chains.
  bool active(std::size_t i, int month) const;

  /// Indices of all sources active during month m. Thread-safe.
  std::vector<std::uint32_t> active_sources(int month) const;

  /// Snapshot of month m's full activity row (index i -> 0/1). One lock
  /// instead of one per `active` call — the per-source hot loops
  /// (honeyfarm detection sweep) read this copy lock-free.
  std::vector<std::uint8_t> activity_row(int month) const;

  /// Sum of weights over the full population.
  double total_weight() const { return total_weight_; }

 private:
  void ensure_months(int month) const;
  std::size_t ip_slot(std::uint32_t ip) const;
  /// Add `ip` to the address set; false when it is already there.
  bool insert_ip(std::uint32_t ip);

  PopulationConfig config_;
  std::vector<SourceRecord> sources_;
  double total_weight_ = 0.0;
  double active_weight_ = 0.0;
  // The sources' addresses as an open-addressing set, sized once at
  // construction to at most half full and probed linearly from a
  // Fibonacci hash; 0 marks an empty slot, as no source lies in 0.0.0.0/8.
  std::vector<std::uint32_t> ip_slots_;
  std::size_t ip_mask_ = 0;  // ip_slots_.size() - 1 (power of two)
  std::vector<int> block_of_;   // -1 for independent sources
  std::size_t block_count_ = 0;
  // activity_[m][i] for months simulated so far (mutable lazy cache);
  // block_activity_[m][b] gates botnet-block members. The Markov chains
  // advance month by month, so extension is inherently serial; the mutex
  // makes the lazy fill safe under concurrent snapshot/month tasks.
  mutable std::mutex activity_mutex_;
  mutable std::vector<std::vector<std::uint8_t>> activity_;
  mutable std::vector<std::vector<std::uint8_t>> block_activity_;
};

}  // namespace obscorr::netgen
