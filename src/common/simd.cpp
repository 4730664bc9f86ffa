#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace obscorr::simd {

namespace {

/// The environment's choice, read once: the environment is not expected
/// to change under a running process.
bool env_allows_aes() {
  static const bool allowed = [] {
    const char* raw = std::getenv("OBSCORR_SIMD");
    return raw == nullptr || !forces_byte_wise(raw);
  }();
  return allowed;
}

/// The `set_aes` override: -1 none, 0 byte-wise, 1 AES-NI where
/// detected. Read with one relaxed load per call.
std::atomic<int>& override_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

bool aes_detected() {
#if defined(__x86_64__)
  static const bool detected = __builtin_cpu_supports("aes");
  return detected;
#else
  return false;
#endif
}

bool forces_byte_wise(std::string_view value) { return value == "scalar"; }

bool use_aes() {
  const int forced = override_slot().load(std::memory_order_relaxed);
  const bool wanted = forced >= 0 ? forced == 1 : env_allows_aes();
  return wanted && aes_detected();
}

void set_aes(std::optional<bool> aes_ni) {
  override_slot().store(aes_ni.has_value() ? static_cast<int>(*aes_ni) : -1,
                        std::memory_order_relaxed);
}

}  // namespace obscorr::simd
