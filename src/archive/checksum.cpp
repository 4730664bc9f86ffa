#include "archive/checksum.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define OBSCORR_CRC32C_HW 1
#endif

namespace obscorr::archive {

namespace {

/// Byte-at-a-time lookup table for the reflected Castagnoli polynomial,
/// built once at first use — the portable fallback and the tail handler
/// for the hardware path.
const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

std::uint32_t crc32c_sw(std::span<const std::byte> bytes, std::uint32_t crc) {
  const auto& table = crc32c_table();
  for (const std::byte b : bytes) {
    crc = table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef OBSCORR_CRC32C_HW

/// SSE4.2 crc32 instruction path, ~an order of magnitude faster than the
/// table — opening an archive checksums the entire entry log, so this is
/// directly on the `--from` latency path.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(std::span<const std::byte> bytes,
                                                          std::uint32_t crc) {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
#if defined(__x86_64__)
  std::uint64_t crc64 = crc;
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc64 = _mm_crc32_u64(crc64, chunk);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
#else
  while (n >= 4) {
    std::uint32_t chunk;
    std::memcpy(&chunk, p, 4);
    crc = _mm_crc32_u32(crc, chunk);
    p += 4;
    n -= 4;
  }
#endif
  while (n > 0) {
    crc = _mm_crc32_u8(crc, static_cast<std::uint8_t>(*p));
    ++p;
    --n;
  }
  return crc;
}

bool crc32c_hw_available() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#endif  // OBSCORR_CRC32C_HW

/// a(x)·b(x) modulo the polynomial, both reflected with x^0 in bit 31.
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ 0x82F63B78u : b >> 1;
  }
  return product;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> bytes, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
#ifdef OBSCORR_CRC32C_HW
  if (crc32c_hw_available()) {
    crc = crc32c_hw(bytes, crc);
  } else {
    crc = crc32c_sw(bytes, crc);
  }
#else
  crc = crc32c_sw(bytes, crc);
#endif
  return ~crc;
}

std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed) {
  return crc32c(std::as_bytes(std::span<const char>(bytes.data(), bytes.size())), seed);
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b) {
  // Appending len_b bytes multiplies A's CRC by x^(8·len_b): the set bits
  // of len_b pick the squares x^(8·2^k) that make up that power.
  std::uint32_t shift = 1u << 31;   // x^0
  std::uint32_t square = 1u << 23;  // x^8
  for (; len_b != 0; len_b >>= 1) {
    if (len_b & 1) shift = multmodp(square, shift);
    square = multmodp(square, square);
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace obscorr::archive
