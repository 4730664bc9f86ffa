/// \file aes128_simd.cpp
/// AES-NI variant of `Aes128::encrypt_blocks`. It loads the byte-wise
/// cipher's FIPS-197 key schedule as-is: the 176 expanded bytes are the
/// 11 AES-NI round keys in memory order, so both paths share one key
/// schedule and give identical ciphertexts on every block.
///
/// CryptoPAN encrypts 32 independent blocks per address (one per prefix
/// length). A single `aesenc` chain would wait out the instruction's
/// latency every round; the kernel instead steps eight blocks through
/// each round before the next, so eight chains are in flight at once.
/// The same contract holds with AES-NI off: `OBSCORR_SIMD=scalar` or
/// `simd::set_aes(false)` runs the byte-wise reference.

#include "crypt/aes128.hpp"

#if defined(__x86_64__)

#include <wmmintrin.h>  // AES-NI, and the SSE2 loads and stores

namespace obscorr::crypt {

namespace {

static_assert(sizeof(Aes128::Block) == sizeof(__m128i), "a Block loads as one __m128i");

/// Blocks in flight per group: enough independent chains to cover the
/// `aesenc` latency, few enough that the states stay in registers.
constexpr std::size_t kLanes = 8;

/// Encrypt the `lanes` consecutive blocks at `p` in place, round by
/// round across the blocks.
template <std::size_t lanes>
__attribute__((target("aes"))) inline void encrypt_group(const __m128i (&rk)[11], __m128i* p) {
  __m128i s[lanes];
  for (std::size_t j = 0; j < lanes; ++j) s[j] = _mm_xor_si128(_mm_loadu_si128(p + j), rk[0]);
  for (int r = 1; r < 10; ++r) {
    for (std::size_t j = 0; j < lanes; ++j) s[j] = _mm_aesenc_si128(s[j], rk[r]);
  }
  for (std::size_t j = 0; j < lanes; ++j) {
    _mm_storeu_si128(p + j, _mm_aesenclast_si128(s[j], rk[10]));
  }
}

}  // namespace

__attribute__((target("aes"))) void Aes128::encrypt_blocks_aesni(std::span<Block> blocks) const {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys_.data() + 16 * r));
  }
  auto* p = reinterpret_cast<__m128i*>(blocks.data());
  const std::size_t n = blocks.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) encrypt_group<kLanes>(rk, p + i);
  for (; i < n; ++i) encrypt_group<1>(rk, p + i);
}

}  // namespace obscorr::crypt

#endif  // defined(__x86_64__)
