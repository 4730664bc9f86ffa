#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace obscorr::simd {

namespace {

Tier detect() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return Tier::kSse42;
#endif
  return Tier::kScalar;
}

bool detect_aes() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("aes");
#else
  return false;
#endif
}

Tier clamp_to_detected(Tier tier) {
  return static_cast<int>(tier) <= static_cast<int>(detected_tier()) ? tier : detected_tier();
}

/// Tier implied by the environment when no set_tier override is active:
/// detection capped by OBSCORR_SIMD. Read once — the environment is not
/// expected to change under a running process.
Tier env_tier() {
  static const Tier tier = [] {
    const char* raw = std::getenv("OBSCORR_SIMD");
    if (raw != nullptr && *raw != '\0') {
      if (auto parsed = parse_tier(raw)) return clamp_to_detected(*parsed);
    }
    return detected_tier();
  }();
  return tier;
}

/// Active tier as a plain int so kernels pay one relaxed load per
/// dispatch. -1 means "no override": fall through to env_tier().
std::atomic<int>& override_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

Tier detected_tier() {
  static const Tier tier = detect();
  return tier;
}

Tier active_tier() {
  const int forced = override_slot().load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  return env_tier();
}

void set_tier(std::optional<Tier> tier) {
  if (!tier.has_value()) {
    override_slot().store(-1, std::memory_order_relaxed);
    return;
  }
  override_slot().store(static_cast<int>(clamp_to_detected(*tier)), std::memory_order_relaxed);
}

std::optional<Tier> parse_tier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "sse42") return Tier::kSse42;
  if (name == "avx2") return Tier::kAvx2;
  return std::nullopt;
}

std::string_view tier_name(Tier tier) {
  switch (tier) {
    case Tier::kSse42:
      return "sse42";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

bool use_avx2() { return active_tier() == Tier::kAvx2; }

bool use_aes() {
  static const bool has_aes = detect_aes();
  return has_aes && active_tier() != Tier::kScalar;
}

}  // namespace obscorr::simd
