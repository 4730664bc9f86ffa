/// Both AES-128 paths behind CryptoPAN: the byte-wise FIPS-197 reference
/// and the AES-NI kernel `Aes128::encrypt_blocks` dispatches to. Known
/// answers go through the batch entry on each path, and a differential
/// suite compares `CryptoPan::anonymize` on the two paths over random
/// raw secrets, random addresses and edge addresses.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <vector>

#include "common/prng.hpp"
#include "common/simd.hpp"
#include "crypt/aes128.hpp"
#include "crypt/cryptopan.hpp"

namespace obscorr::crypt {
namespace {

/// The cipher a test pins: the byte-wise reference (`set_aes(false)`) or
/// the host's best (`set_aes(true)`, which overrides
/// `OBSCORR_SIMD=scalar`, so the byte-wise CI job still compares the two
/// paths).
enum class CipherPath { kByteWise, kHost };

/// Pins the cipher for its lifetime and restores the default after.
class PathGuard {
 public:
  explicit PathGuard(CipherPath path) { simd::set_aes(path == CipherPath::kHost); }
  ~PathGuard() { simd::set_aes(std::nullopt); }
  PathGuard(const PathGuard&) = delete;
  PathGuard& operator=(const PathGuard&) = delete;
};

constexpr CipherPath kPaths[] = {CipherPath::kByteWise, CipherPath::kHost};

const char* path_name(CipherPath path) {
  return path == CipherPath::kByteWise ? "byte-wise" : "host";
}

Aes128::Block hex_block(const char* hex) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  Aes128::Block b{};
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1]));
  }
  return b;
}

/// A key with its known plaintext/ciphertext pairs.
struct KnownAnswers {
  const char* key;
  std::vector<std::pair<const char*, const char*>> pairs;
};

const std::vector<KnownAnswers>& known_answers() {
  static const std::vector<KnownAnswers> vectors = {
      // FIPS-197 Appendix C.1.
      {"000102030405060708090a0b0c0d0e0f",
       {{"00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"}}},
      // FIPS-197 Appendix B.
      {"2b7e151628aed2a6abf7158809cf4f3c",
       {{"3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"}}},
      // NIST SP 800-38A F.1.1, ECB-AES128 encrypt, blocks 1-4.
      {"2b7e151628aed2a6abf7158809cf4f3c",
       {{"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
        {"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
        {"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
        {"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"}}},
  };
  return vectors;
}

CryptoPan::Secret random_secret(Rng& rng) {
  CryptoPan::Secret secret;
  for (std::uint8_t& byte : secret) byte = static_cast<std::uint8_t>(rng.next());
  return secret;
}

/// CryptoPAN's pad word for `secret`: the first four bytes, big-endian,
/// of the pad half encrypted under the key half.
std::uint32_t pad_word(const CryptoPan::Secret& secret) {
  Aes128::Key key;
  Aes128::Block raw;
  for (std::size_t i = 0; i < 16; ++i) {
    key[i] = secret[i];
    raw[i] = secret[16 + i];
  }
  const Aes128::Block pad = Aes128(key).encrypt(raw);
  return (std::uint32_t{pad[0]} << 24) | (std::uint32_t{pad[1]} << 16) |
         (std::uint32_t{pad[2]} << 8) | std::uint32_t{pad[3]};
}

std::vector<std::uint32_t> anonymize_all(const CryptoPan& pan, CipherPath path,
                                         const std::vector<std::uint32_t>& addresses) {
  const PathGuard guard(path);
  std::vector<std::uint32_t> out;
  out.reserve(addresses.size());
  for (const std::uint32_t a : addresses) out.push_back(pan.anonymize(Ipv4(a)).value());
  return out;
}

TEST(Aes128BatchTest, HostPathIsAesNiWhereCpuidReportsIt) {
  {
    const PathGuard guard(CipherPath::kByteWise);
    EXPECT_FALSE(simd::use_aes());
  }
  const PathGuard guard(CipherPath::kHost);
#if defined(__x86_64__)
  if (__builtin_cpu_supports("aes")) {
    EXPECT_TRUE(simd::use_aes());
  } else {
    EXPECT_FALSE(simd::use_aes());
  }
#else
  EXPECT_FALSE(simd::use_aes());
#endif
}

TEST(Aes128BatchTest, KnownAnswersOnBothPaths) {
  // A lone block, a partial group, one full group of eight, and full
  // groups with a tail.
  constexpr std::size_t kBatchSizes[] = {1, 4, 8, 9, 35};
  for (const CipherPath path : kPaths) {
    const PathGuard guard(path);
    for (const KnownAnswers& ka : known_answers()) {
      const Aes128 aes(hex_block(ka.key));
      for (const std::size_t n : kBatchSizes) {
        std::vector<Aes128::Block> blocks(n);
        for (std::size_t i = 0; i < n; ++i) {
          blocks[i] = hex_block(ka.pairs[i % ka.pairs.size()].first);
        }
        aes.encrypt_blocks(blocks);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(blocks[i], hex_block(ka.pairs[i % ka.pairs.size()].second))
              << path_name(path) << " key " << ka.key << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(Aes128BatchTest, HostPathMatchesEncryptOnRandomBlocks) {
  Rng rng(0xAE5);
  for (int k = 0; k < 4; ++k) {
    Aes128::Key key;
    for (std::uint8_t& byte : key) byte = static_cast<std::uint8_t>(rng.next());
    const Aes128 aes(key);
    for (std::size_t n = 0; n <= 41; ++n) {
      std::vector<Aes128::Block> blocks(n);
      for (Aes128::Block& b : blocks) {
        for (std::uint8_t& byte : b) byte = static_cast<std::uint8_t>(rng.next());
      }
      std::vector<Aes128::Block> expect;
      for (const Aes128::Block& b : blocks) expect.push_back(aes.encrypt(b));
      const PathGuard guard(CipherPath::kHost);
      aes.encrypt_blocks(blocks);
      EXPECT_EQ(blocks, expect) << "key " << k << " n=" << n;
    }
  }
}

TEST(CryptoPanDifferentialTest, RandomSecretsAndAddressesMatchByteWise) {
  // Raw 32-byte secrets (both halves arbitrary, not only SplitMix64
  // output) plus two seeded keys, 8,000 random addresses each. The
  // byte-wise side costs about 7 us an address.
  Rng rng(0xC0FFEE);
  std::vector<CryptoPan> pans;
  for (int k = 0; k < 6; ++k) pans.emplace_back(random_secret(rng));
  pans.push_back(CryptoPan::from_seed(42));
  pans.push_back(CryptoPan::from_seed(0xCA1DA));
  for (std::size_t k = 0; k < pans.size(); ++k) {
    std::vector<std::uint32_t> addresses(8000);
    for (std::uint32_t& a : addresses) a = rng.next_u32();
    const std::vector<std::uint32_t> reference =
        anonymize_all(pans[k], CipherPath::kByteWise, addresses);
    const std::vector<std::uint32_t> host = anonymize_all(pans[k], CipherPath::kHost, addresses);
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      ASSERT_EQ(host[i], reference[i])
          << "key " << k << " address " << Ipv4(addresses[i]).to_string();
    }
  }
}

TEST(CryptoPanDifferentialTest, EdgeAddressesMatchByteWise) {
  // The extremes, the two halves' boundary, and the pad word itself (the
  // address whose 32 PRF inputs all equal the pad block) with neighbours.
  Rng rng(0xED6E);
  for (int k = 0; k < 8; ++k) {
    const CryptoPan::Secret secret = random_secret(rng);
    const std::uint32_t pad = pad_word(secret);
    const std::vector<std::uint32_t> addresses = {
        Ipv4(0, 0, 0, 0).value(),       Ipv4(255, 255, 255, 255).value(),
        Ipv4(127, 255, 255, 255).value(), Ipv4(128, 0, 0, 0).value(),
        pad, pad ^ 1U, pad ^ 0x80000000U, ~pad};
    const CryptoPan pan(secret);
    const std::vector<std::uint32_t> reference =
        anonymize_all(pan, CipherPath::kByteWise, addresses);
    EXPECT_EQ(anonymize_all(pan, CipherPath::kHost, addresses), reference) << "secret " << k;
    // Prefix preservation across the 0/1 top-bit boundary: no shared bit.
    EXPECT_EQ((reference[2] ^ reference[3]) >> 31, 1U);
  }
}

}  // namespace
}  // namespace obscorr::crypt
