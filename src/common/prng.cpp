#include "common/prng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace obscorr {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream id through SplitMix64 before combining so that
  // consecutive stream ids land far apart in seed space.
  SplitMix64 sid(stream ^ 0xd1b54a32d192ed03ULL);
  SplitMix64 sm(seed ^ sid.next());
  for (auto& s : s_) s = sm.next();
}

double Rng::uniform(double lo, double hi) {
  OBSCORR_REQUIRE(lo <= hi, "uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double lambda) {
  OBSCORR_REQUIRE(lambda > 0.0, "exponential: rate must be positive");
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / lambda;
}

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mu, double sigma) {
  OBSCORR_REQUIRE(sigma >= 0.0, "normal: sigma must be non-negative");
  return mu + sigma * normal();
}

double Rng::beta_a1(double a) {
  OBSCORR_REQUIRE(a > 0.0, "beta_a1: shape must be positive");
  return std::pow(uniform(), 1.0 / a);
}

std::uint64_t Rng::poisson(double lambda) {
  OBSCORR_REQUIRE(lambda >= 0.0, "poisson: mean must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth: multiply uniforms until the product drops below exp(-lambda).
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // PTRS transformed-rejection (Hormann 1993): valid for lambda >= 10.
  const double b = 0.931 + 2.53 * std::sqrt(lambda);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    double u = uniform() - 0.5;
    double v = uniform();
    double us = 0.5 - std::abs(u);
    double k = std::floor((2.0 * a / us + b) * u + lambda + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    // Not std::lgamma: glibc's writes the global `signgam`, a data race.
    int sign = 0;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * std::log(lambda) - lambda - ::lgamma_r(k + 1.0, &sign)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

AliasTable::AliasTable(std::span<const double> weights) {
  OBSCORR_REQUIRE(!weights.empty(), "AliasTable: weights must be non-empty");
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    OBSCORR_REQUIRE(w >= 0.0 && std::isfinite(w), "AliasTable: weights must be finite and >= 0");
    total += w;
  }
  OBSCORR_REQUIRE(total > 0.0, "AliasTable: at least one weight must be positive");

  prob_.resize(n);
  alias_.resize(n);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Residuals are 1 up to rounding error.
  for (std::uint32_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (std::uint32_t i : small) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

std::size_t AliasTable::sample(Rng& rng) const {
  const std::size_t i = static_cast<std::size_t>(rng.uniform_u64(prob_.size()));
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

}  // namespace obscorr
