#pragma once
/// \file aes128.hpp
/// AES-128 block encryption (FIPS-197), encrypt-only.
///
/// Written from the specification so the repository is self-contained
/// offline; it exists solely as the PRF inside CryptoPAN (Fan et al.
/// 2004), the prefix-preserving anonymizer the CAIDA pipeline applies
/// before traffic matrices are shared. Correctness is pinned to the
/// FIPS-197 appendix test vectors in the unit tests. Not intended as a
/// general-purpose cipher (no decryption, no modes).
///
/// Two paths share one FIPS-197 key schedule: the byte-wise reference
/// below (table S-box, not constant-time) and an AES-NI kernel
/// (aes128_simd.cpp) that `encrypt_blocks` dispatches to when
/// `simd::use_aes()` holds. The 176 expanded key bytes are the AES-NI
/// round keys as they stand, and both paths give identical ciphertexts.

#include <array>
#include <cstdint>
#include <span>

namespace obscorr::crypt {

/// AES-128 encryptor with a fixed key.
class Aes128 {
 public:
  using Block = std::array<std::uint8_t, 16>;
  using Key = std::array<std::uint8_t, 16>;

  explicit Aes128(const Key& key);

  /// Encrypt one 16-byte block (byte-wise reference).
  Block encrypt(const Block& plaintext) const;

  /// Encrypt `blocks` in place, each independently (ECB). Runs the
  /// AES-NI kernel when `simd::use_aes()` holds, else `encrypt` per block.
  void encrypt_blocks(std::span<Block> blocks) const;

 private:
  void encrypt_blocks_aesni(std::span<Block> blocks) const;

  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_{};
};

}  // namespace obscorr::crypt
