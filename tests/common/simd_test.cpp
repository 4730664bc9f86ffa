#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace obscorr::simd {
namespace {

/// Restores the default cipher choice whatever a test overrides.
class AesGuard {
 public:
  AesGuard() = default;
  ~AesGuard() { set_aes(std::nullopt); }
};

TEST(SimdDispatchTest, AesDetectionIsStable) {
  const bool first = aes_detected();
  EXPECT_EQ(aes_detected(), first);  // cached, not re-probed
#if !defined(__x86_64__)
  EXPECT_FALSE(first);
#endif
}

TEST(SimdDispatchTest, OnlyScalarForcesByteWise) {
  EXPECT_TRUE(forces_byte_wise("scalar"));
  // A retired tier name, like any other value, means auto.
  EXPECT_FALSE(forces_byte_wise(""));
  EXPECT_FALSE(forces_byte_wise("sse42"));
  EXPECT_FALSE(forces_byte_wise("AVX"));
  EXPECT_FALSE(forces_byte_wise("SCALAR"));
  EXPECT_FALSE(forces_byte_wise("scalar "));
  EXPECT_FALSE(forces_byte_wise("auto"));
}

TEST(SimdDispatchTest, ForcedScalarAlwaysWins) {
  const AesGuard guard;
  set_aes(false);
  EXPECT_FALSE(use_aes());
}

TEST(SimdDispatchTest, ForcedAesNiClampsToDetection) {
  const AesGuard guard;
  // Requesting AES-NI on a host without it keeps the byte-wise cipher:
  // the kernel never runs where cpuid does not report the `aes` bit.
  set_aes(true);
  EXPECT_EQ(use_aes(), aes_detected());
}

TEST(SimdDispatchTest, AutoNeverExceedsDetection) {
  const AesGuard guard;
  set_aes(std::nullopt);
  // OBSCORR_SIMD=scalar may turn it off, so the only portable invariant
  // is the detection ceiling.
  EXPECT_TRUE(!use_aes() || aes_detected());
}

}  // namespace
}  // namespace obscorr::simd
