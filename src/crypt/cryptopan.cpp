#include "crypt/cryptopan.hpp"

#include "common/prng.hpp"

namespace obscorr::crypt {

CryptoPan::CryptoPan(const Secret& secret)
    : aes_([&] {
        Aes128::Key key;
        for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = secret[static_cast<std::size_t>(i)];
        return Aes128(key);
      }()) {
  // The reference implementation first encrypts the raw pad bytes with the
  // keyed cipher to decorrelate the two secret halves.
  Aes128::Block raw;
  for (int i = 0; i < 16; ++i) raw[static_cast<std::size_t>(i)] = secret[static_cast<std::size_t>(16 + i)];
  pad_ = aes_.encrypt(raw);
  pad_word_ = (std::uint32_t{pad_[0]} << 24) | (std::uint32_t{pad_[1]} << 16) |
              (std::uint32_t{pad_[2]} << 8) | std::uint32_t{pad_[3]};
}

CryptoPan CryptoPan::from_seed(std::uint64_t seed) {
  SplitMix64 sm(seed ^ 0xc2b2ae3d27d4eb4fULL);
  Secret secret;
  for (std::size_t i = 0; i < secret.size(); i += 8) {
    const std::uint64_t word = sm.next();
    for (std::size_t b = 0; b < 8; ++b) {
      secret[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return CryptoPan(secret);
}

Ipv4 CryptoPan::anonymize(Ipv4 addr) const {
  const std::uint32_t orig = addr.value();

  // For each prefix length i, the PRF input is the first i bits of the
  // original address with the remaining 32-i bits taken from the pad;
  // the output bit is the MSB of the AES ciphertext. Addresses sharing a
  // k-bit prefix share the first k PRF inputs, hence the first k output
  // bits — that is the prefix-preserving property. The 32 inputs do not
  // depend on each other, so they are encrypted as one batch.
  std::array<Aes128::Block, 32> blocks;
  for (int i = 0; i < 32; ++i) {
    const std::uint32_t mask = i == 0 ? 0U : ~0U << (32 - i);
    const std::uint32_t mixed = (orig & mask) | (pad_word_ & ~mask);
    Aes128::Block& input = blocks[static_cast<std::size_t>(i)];
    input = pad_;
    input[0] = static_cast<std::uint8_t>(mixed >> 24);
    input[1] = static_cast<std::uint8_t>(mixed >> 16);
    input[2] = static_cast<std::uint8_t>(mixed >> 8);
    input[3] = static_cast<std::uint8_t>(mixed);
  }
  aes_.encrypt_blocks(blocks);

  std::uint32_t otp = 0;  // one-time pad assembled bit by bit, MSB first
  for (int i = 0; i < 32; ++i) {
    otp |= static_cast<std::uint32_t>(blocks[static_cast<std::size_t>(i)][0] >> 7) << (31 - i);
  }
  return Ipv4(orig ^ otp);
}

}  // namespace obscorr::crypt
