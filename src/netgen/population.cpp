#include "netgen/population.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

#include "common/error.hpp"

namespace obscorr::netgen {

double persistence_shape(double expected_degree, const PopulationConfig& config) {
  // Work in x = log2(d) / log2(sqrt(N_V)), the brightness coordinate the
  // paper's thresholds are expressed in. The churn dip sits at the
  // d ~ 10^3 equivalent: x_mid = log2(10^3)/15 ~ 0.66 at N_V = 2^30.
  const double half_log_nv = static_cast<double>(config.log2_nv) / 2.0;
  const double x = std::log2(std::max(expected_degree, 1.0)) / half_log_nv;
  // The dip is parameterized on the *full-population* expected degree;
  // observed window degrees are conditioned on activity (~3x brighter),
  // so the centre sits ~0.15 below the paper's observed x ~ 0.66.
  constexpr double kDip = 0.50;
  constexpr double kWidth = 0.33;
  const double u = (x - kDip) / kWidth;
  const double dip = std::exp(-u * u);  // 1 at the dip, ->0 at the extremes
  return config.persist_shape_stable +
         (config.persist_shape_churny - config.persist_shape_stable) * dip;
}

Population::Population(const PopulationConfig& config) : config_(config) {
  OBSCORR_REQUIRE(config.population > 0, "population must be non-empty");
  OBSCORR_REQUIRE(config.zm_alpha > 0.0, "zm_alpha must be positive");
  OBSCORR_REQUIRE(config.zm_delta >= 0.0, "zm_delta must be non-negative");
  OBSCORR_REQUIRE(config.rebirth_prob >= 0.0 && config.rebirth_prob < 1.0,
                  "rebirth_prob must be in [0,1)");

  OBSCORR_REQUIRE(config.hybrid_share >= 0.0 && config.hybrid_share < 1.0,
                  "hybrid_share must be in [0,1)");
  OBSCORR_REQUIRE(config.hybrid_share == 0.0 || config.hybrid_sources > 0,
                  "hybrid_share > 0 requires hybrid_sources > 0");
  OBSCORR_REQUIRE(config.hybrid_sources < config.population,
                  "hybrid_sources must leave room for the background population");

  sources_.resize(config.population);

  // Rank weights first so total_weight_ is available for the
  // brightness-dependent persistence draw. With the hybrid extension the
  // first `hybrid_sources` ranks form an adversarial component whose own
  // Zipf-Mandelbrot law carries `hybrid_share` of the total weight; the
  // rest is the background law (Devlin et al. 2021 hybrid model).
  const std::size_t adversarial = config.hybrid_share > 0.0 ? config.hybrid_sources : 0;
  double adv_weight = 0.0;
  for (std::size_t r = 0; r < adversarial; ++r) {
    sources_[r].weight =
        std::pow(static_cast<double>(r + 1) + config.hybrid_delta, -config.hybrid_alpha);
    adv_weight += sources_[r].weight;
  }
  double bg_weight = 0.0;
  for (std::size_t r = adversarial; r < config.population; ++r) {
    sources_[r].weight =
        std::pow(static_cast<double>(r - adversarial + 1) + config.zm_delta, -config.zm_alpha);
    bg_weight += sources_[r].weight;
  }
  if (adversarial > 0) {
    // Normalize so the adversarial block carries exactly hybrid_share.
    const double adv_scale = config.hybrid_share / adv_weight;
    const double bg_scale = (1.0 - config.hybrid_share) / bg_weight;
    for (std::size_t r = 0; r < adversarial; ++r) sources_[r].weight *= adv_scale;
    for (std::size_t r = adversarial; r < config.population; ++r) sources_[r].weight *= bg_scale;
    total_weight_ = 1.0;
  } else {
    total_weight_ = bg_weight;
  }

  // Botnet-block layout: the dimmest `botnet_fraction` of sources are
  // grouped into /24 blocks of `botnet_block_size` members each.
  OBSCORR_REQUIRE(config.botnet_fraction >= 0.0 && config.botnet_fraction <= 1.0,
                  "botnet_fraction must be in [0,1]");
  OBSCORR_REQUIRE(config.botnet_block_size >= 2 && config.botnet_block_size <= 256,
                  "botnet_block_size must be in [2,256]");
  OBSCORR_REQUIRE(config.botnet_block_persist > 0.0 && config.botnet_block_persist < 1.0,
                  "botnet_block_persist must be in (0,1)");
  OBSCORR_REQUIRE(config.botnet_block_rebirth > 0.0 && config.botnet_block_rebirth <= 1.0,
                  "botnet_block_rebirth must be in (0,1]");
  const auto botnet_members =
      static_cast<std::size_t>(config.botnet_fraction * static_cast<double>(config.population));
  block_count_ = botnet_members / config.botnet_block_size;
  const std::size_t blocked = block_count_ * config.botnet_block_size;
  block_of_.assign(config.population, -1);
  for (std::size_t j = 0; j < blocked; ++j) {
    block_of_[config.population - blocked + j] = static_cast<int>(j / config.botnet_block_size);
  }

  // Unique IPs drawn outside 0.0.0.0/8 and the conventional telescope /8
  // (owned by the telescope config, but excluding one /8 here keeps the
  // population valid for any darkspace choice in [1,126]). Botnet block
  // members get contiguous addresses inside one /24.
  Rng ip_rng(config.seed, /*stream=*/0x1b);
  ip_slots_.assign(std::bit_ceil(2 * config.population), 0);
  ip_mask_ = ip_slots_.size() - 1;
  const auto top_ok = [](std::uint32_t candidate) {
    const std::uint32_t top = candidate >> 24;
    return top != 0 && top != 10 && top != 77 && top != 127 && top < 224;
  };
  // Block bases first so members can claim contiguous runs. At this
  // point the address set holds only members of previously placed
  // blocks, every base is /24-aligned, and members stay inside their
  // base's /24 — so a candidate clashes exactly when some earlier block
  // drew the *same* base. One probe of the claimed bases replaces the
  // member-by-member scan (whose cost grew with the block size) and
  // accepts/rejects the identical candidate sequence, so every drawn IP
  // is unchanged.
  std::vector<std::uint32_t> block_base(block_count_);
  std::unordered_set<std::uint32_t> claimed_bases;
  claimed_bases.reserve(block_count_ * 2);
  for (std::size_t b = 0; b < block_count_; ++b) {
    for (;;) {
      const std::uint32_t base = ip_rng.next_u32() & ~0xFFu;
      if (!top_ok(base)) continue;
      if (!claimed_bases.insert(base).second) continue;
      // Members still enter the address set so the singles draw below
      // avoids them.
      for (std::size_t j = 0; j < config.botnet_block_size; ++j) {
        insert_ip(base + static_cast<std::uint32_t>(j));
      }
      block_base[b] = base;
      break;
    }
  }
  for (std::size_t r = 0; r < config.population; ++r) {
    if (block_of_[r] >= 0) {
      const std::size_t offset = (r - (config.population - blocked)) % config.botnet_block_size;
      sources_[r].ip =
          Ipv4(block_base[static_cast<std::size_t>(block_of_[r])] + static_cast<std::uint32_t>(offset));
      continue;
    }
    for (;;) {
      const std::uint32_t candidate = ip_rng.next_u32();
      if (!top_ok(candidate)) continue;  // reserved/legit/darkspace
      if (insert_ip(candidate)) {
        sources_[r].ip = Ipv4(candidate);
        break;
      }
    }
  }

  const double nv = std::exp2(static_cast<double>(config.log2_nv));
  for (std::size_t r = 0; r < config.population; ++r) {
    const double expected = nv * sources_[r].weight / total_weight_;
    const double shape = persistence_shape(expected, config);
    Rng source_rng(config.seed, std::uint64_t{0x100000000} + r);
    sources_[r].persist = source_rng.beta_a1(shape);
    sources_[r].rebirth = config.rebirth_prob;
    active_weight_ += sources_[r].weight * stationary_activity(r);
  }
  OBSCORR_INVARIANT(active_weight_ > 0.0);
}

std::size_t Population::ip_slot(std::uint32_t ip) const {
  // Fibonacci multiplicative hash of the address over the table size.
  return static_cast<std::size_t>((ip * std::uint64_t{0x9E3779B97F4A7C15}) >> 32) & ip_mask_;
}

bool Population::insert_ip(std::uint32_t ip) {
  std::size_t i = ip_slot(ip);
  for (; ip_slots_[i] != 0; i = (i + 1) & ip_mask_) {
    if (ip_slots_[i] == ip) return false;
  }
  ip_slots_[i] = ip;
  return true;
}

bool Population::owns_ip(Ipv4 ip) const {
  for (std::size_t i = ip_slot(ip.value()); ip_slots_[i] != 0; i = (i + 1) & ip_mask_) {
    if (ip_slots_[i] == ip.value()) return true;
  }
  return false;
}

double Population::expected_window_degree(std::size_t i) const {
  OBSCORR_REQUIRE(i < sources_.size(), "source index out of range");
  const double nv = std::exp2(static_cast<double>(config_.log2_nv));
  return nv * sources_[i].weight / total_weight_;
}

double Population::expected_active_degree(std::size_t i) const {
  OBSCORR_REQUIRE(i < sources_.size(), "source index out of range");
  const double nv = std::exp2(static_cast<double>(config_.log2_nv));
  return nv * sources_[i].weight / active_weight_;
}

double Population::stationary_activity(std::size_t i) const {
  OBSCORR_REQUIRE(i < sources_.size(), "source index out of range");
  const SourceRecord& s = sources_[i];
  return s.rebirth / (1.0 - s.persist + s.rebirth);
}

void Population::ensure_months(int month) const {
  // Callers hold activity_mutex_.
  OBSCORR_REQUIRE(month >= 0, "month index must be non-negative");
  while (activity_.size() <= static_cast<std::size_t>(month)) {
    const int m = static_cast<int>(activity_.size());

    // Block chains first: a botnet member is active only while its block
    // is (the whole subnet joins and leaves campaigns together).
    std::vector<std::uint8_t> blocks(block_count_);
    for (std::size_t b = 0; b < block_count_; ++b) {
      Rng rng(config_.seed, std::uint64_t{0xB00000000} +
                                static_cast<std::uint64_t>(m) * (block_count_ + 1) + b);
      if (m == 0) {
        const double pi = config_.botnet_block_rebirth /
                          (1.0 - config_.botnet_block_persist + config_.botnet_block_rebirth);
        blocks[b] = rng.bernoulli(pi) ? 1 : 0;
      } else {
        const bool was = block_activity_[static_cast<std::size_t>(m - 1)][b] != 0;
        blocks[b] =
            rng.bernoulli(was ? config_.botnet_block_persist : config_.botnet_block_rebirth) ? 1
                                                                                             : 0;
      }
    }

    std::vector<std::uint8_t> row(sources_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      // Per-(source, month) decision stream: reproducible regardless of
      // which months were evaluated before.
      Rng rng(config_.seed,
              std::uint64_t{0x200000000} + static_cast<std::uint64_t>(m) * sources_.size() + i);
      const SourceRecord& s = sources_[i];
      bool active;
      if (m == 0) {
        // Start at the chain's stationary distribution so the study
        // window sees an equilibrium Internet, not a cold start.
        active = rng.bernoulli(stationary_activity(i));
      } else {
        const bool was_active = activity_[static_cast<std::size_t>(m - 1)][i] != 0;
        active = rng.bernoulli(was_active ? s.persist : s.rebirth);
      }
      if (block_of_[i] >= 0 && blocks[static_cast<std::size_t>(block_of_[i])] == 0) {
        active = false;  // the block is dormant this month
      }
      row[i] = active ? 1 : 0;
    }
    activity_.push_back(std::move(row));
    block_activity_.push_back(std::move(blocks));
  }
}

int Population::block_of(std::size_t i) const {
  OBSCORR_REQUIRE(i < sources_.size(), "source index out of range");
  return block_of_[i];
}

bool Population::active(std::size_t i, int month) const {
  OBSCORR_REQUIRE(i < sources_.size(), "source index out of range");
  std::scoped_lock lock(activity_mutex_);
  ensure_months(month);
  return activity_[static_cast<std::size_t>(month)][i] != 0;
}

std::vector<std::uint32_t> Population::active_sources(int month) const {
  std::scoped_lock lock(activity_mutex_);
  ensure_months(month);
  std::vector<std::uint32_t> out;
  const auto& row = activity_[static_cast<std::size_t>(month)];
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] != 0) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<std::uint8_t> Population::activity_row(int month) const {
  std::scoped_lock lock(activity_mutex_);
  ensure_months(month);
  return activity_[static_cast<std::size_t>(month)];
}

}  // namespace obscorr::netgen
