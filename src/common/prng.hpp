#pragma once
/// \file prng.hpp
/// Deterministic pseudo-random number generation for reproducible
/// simulation. Every generator is seedable and every derived stream is a
/// pure function of (seed, stream id), so experiments are bit-reproducible
/// regardless of thread count or evaluation order.

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace obscorr {

/// SplitMix64: tiny, fast, passes BigCrush when used as a seeder.
/// Used to expand a single 64-bit seed into generator state and to derive
/// independent stream seeds (Vigna 2015).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna): the workhorse generator.
/// State is seeded through SplitMix64 so any 64-bit seed is valid,
/// including zero.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a seed; identical seeds give identical sequences.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Construct an independent stream: a pure function of (seed, stream).
  /// Streams with distinct ids are statistically independent, which makes
  /// per-source / per-month / per-thread substreams reproducible no matter
  /// how work is scheduled.
  Rng(std::uint64_t seed, std::uint64_t stream);

  // next/uniform/uniform_u64/bernoulli are defined inline: they sit in
  // the per-packet hot loops of traffic generation and block ingest,
  // where the cross-TU call would block inlining the whole sample chain.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }
  std::uint64_t operator()() { return next(); }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (Lemire rejection).
  std::uint64_t uniform_u64(std::uint64_t n) {
    OBSCORR_REQUIRE(n > 0, "uniform_u64: n must be positive");
    // Lemire's nearly-divisionless unbiased bounded sampling.
    __extension__ typedef unsigned __int128 Uint128;
    std::uint64_t x = next();
    Uint128 m = static_cast<Uint128>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next();
        m = static_cast<Uint128>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform 32-bit value.
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next() >> 32); }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential with rate lambda > 0.
  double exponential(double lambda);

  /// Standard normal via Box-Muller (no cached spare: keeps streams
  /// stateless-per-call and simple to reason about).
  double normal();

  /// Normal with mean mu and standard deviation sigma >= 0.
  double normal(double mu, double sigma);

  /// Beta(a, 1) variate: density a*x^(a-1) on (0,1); sampled as U^(1/a).
  /// This is the persistence distribution of the drifting-beam model:
  /// E[X^k] = a / (a + k), the paper's modified Cauchy with alpha = 1.
  double beta_a1(double a);

  /// Poisson with mean lambda >= 0 (Knuth for small lambda, PTRS rejection
  /// for large lambda).
  std::uint64_t poisson(double lambda);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Walker alias method for O(1) sampling from a fixed discrete
/// distribution. Build is O(n); memory is 2 words per outcome.
/// Used to draw packet sources from the Zipf-Mandelbrot population.
class AliasTable {
 public:
  /// Build from non-negative weights, at least one strictly positive.
  explicit AliasTable(std::span<const double> weights);

  /// Draw an index in [0, size()).
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }

  /// The acceptance probabilities and alias slots backing `sample`,
  /// exposed for batch sampling (draw a pass of slots, then resolve).
  /// `sample(rng)` is exactly: `i = rng.uniform_u64(size());
  /// rng.uniform() < probs()[i] ? i : aliases()[i]` — batch callers must
  /// reproduce that draw order to stay stream-identical.
  std::span<const double> probs() const { return prob_; }
  std::span<const std::uint32_t> aliases() const { return alias_; }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace obscorr
