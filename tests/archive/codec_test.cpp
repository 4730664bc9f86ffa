/// Block-compression codec: round-trips over every entry of the committed
/// golden archive (the encoder's structure parsers against real payloads),
/// hostile-container rejection (truncation, tag out of range, declared
/// size mismatch, CRC mismatch, trailing bytes), a full single-byte-flip
/// sweep over a compressed container, and the bit-unpack, delta and
/// front-coded decoders on hand-built blocks, delta blocks that declare
/// more lanes than they have bytes among them.

#include "archive/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "archive/checksum.hpp"
#include "archive/reader.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::archive::codec {
namespace {

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

/// Sanitizer runtimes keep shadow and quarantine memory of their own, so
/// footprint checks run only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> to_bytes(std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

/// Every entry of the golden study archive must survive a
/// compress/decompress round trip bit-exactly, and the compressible
/// entries (matrices, source reductions, assoc arrays, months) must
/// actually shrink — the 3x acceptance ratio is asserted over the whole
/// archive, same as `obscorr archive compact --stats` reports.
TEST(CodecTest, GoldenArchiveEntriesRoundTripAndShrink) {
  const std::string dir = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";
  const ArchiveReader r(dir);
  std::uint64_t raw_total = 0;
  std::uint64_t stored_total = 0;
  std::size_t compressed_entries = 0;
  for (const EntryInfo& e : r.entries()) {
    const PayloadView payload = r.payload(e.name);
    raw_total += payload.size();
    const auto stored = compress_entry(e.name, payload.bytes);
    if (!stored.has_value()) {
      stored_total += payload.size();
      continue;
    }
    ++compressed_entries;
    stored_total += stored->size();
    EXPECT_LT(stored->size(), payload.size()) << e.name;
    ASSERT_EQ(decoded_size(as_bytes(*stored)), payload.size()) << e.name;
    const std::vector<std::byte> back = decompress_payload(as_bytes(*stored));
    ASSERT_EQ(back.size(), payload.size()) << e.name;
    EXPECT_EQ(std::memcmp(back.data(), payload.data(), back.size()), 0) << e.name;
  }
  // Snapshots (matrix/sources/assoc) and months all compress; only the
  // scenario and the per-snapshot meta entries stay raw.
  EXPECT_GE(compressed_entries, 30u);
  EXPECT_GE(static_cast<double>(raw_total) / static_cast<double>(stored_total), 3.0)
      << "golden archive must compress at least 3x";
}

TEST(CodecTest, UnknownOrTinyOrGarbagePayloadsStayRaw) {
  // Unknown entry kind: never compressed.
  const std::string blob(4096, 'x');
  EXPECT_FALSE(compress_entry("scenario", as_bytes(blob)).has_value());
  EXPECT_FALSE(compress_entry("snapshot/0/meta", as_bytes(blob)).has_value());
  // Known kind but payload too small to bother.
  const std::string tiny(16, 'y');
  EXPECT_FALSE(compress_entry("snapshot/0/matrix", as_bytes(tiny)).has_value());
  // Known kind, garbage bytes: the structure parser fails, the caller
  // keeps the raw frame — a surprising payload is never a write error.
  EXPECT_FALSE(compress_entry("snapshot/0/matrix", as_bytes(blob)).has_value());
  EXPECT_FALSE(compress_entry("snapshot/0/assoc", as_bytes(blob)).has_value());
  EXPECT_FALSE(compress_entry("month/3", as_bytes(blob)).has_value());
  // Incompressible sources vector (random values): raw wins, nullopt.
  std::string noise;
  std::mt19937_64 rng(7);
  const std::uint64_t nnz = 256;
  noise.append(reinterpret_cast<const char*>(&nnz), 8);
  for (std::uint64_t i = 0; i < nnz; ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(rng());
    noise.append(reinterpret_cast<const char*>(&id), 4);
  }
  for (std::uint64_t i = 0; i < nnz; ++i) {
    const double v = std::ldexp(static_cast<double>(rng()), -13);
    noise.append(reinterpret_cast<const char*>(&v), 8);
  }
  EXPECT_FALSE(compress_entry("snapshot/0/sources", as_bytes(noise)).has_value());
}

/// A real compressed container from the golden archive, for mutation.
std::string golden_container() {
  const std::string dir = std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study";
  const ArchiveReader r(dir);
  const auto stored = compress_entry("month/0", r.payload("month/0").bytes);
  EXPECT_TRUE(stored.has_value());
  return *stored;
}

TEST(CodecTest, DecompressRejectsHostileContainers) {
  const std::string good = golden_container();
  ASSERT_NO_THROW(decompress_payload(as_bytes(good)));

  // Truncations: every prefix strictly shorter than the container must
  // be rejected — header cut short, stream cut mid-block, cut mid-varint.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, kContainerHeaderBytes - 1,
        kContainerHeaderBytes, kContainerHeaderBytes + 1, good.size() / 2,
        good.size() - 1}) {
    const std::string cut = good.substr(0, keep);
    EXPECT_THROW(decompress_payload(as_bytes(cut)), std::invalid_argument)
        << "kept " << keep << " of " << good.size();
    EXPECT_FALSE(decoded_size(as_bytes(cut)).has_value() && keep < kContainerHeaderBytes);
  }

  // Bad magic.
  std::string bad = good;
  bad[0] ^= 0x20;
  EXPECT_THROW(decompress_payload(as_bytes(bad)), std::invalid_argument);
  EXPECT_FALSE(decoded_size(as_bytes(bad)).has_value());

  // Codec tag out of range: first block's tag byte sits right after the
  // fixed header.
  bad = good;
  bad[kContainerHeaderBytes] = static_cast<char>(kMaxBlockTag + 1);
  EXPECT_THROW(decompress_payload(as_bytes(bad)), std::invalid_argument);

  // Declared decoded size disagrees with what the blocks produce.
  bad = good;
  std::uint64_t raw_size = 0;
  std::memcpy(&raw_size, bad.data() + 8, 8);
  const std::uint64_t lied = raw_size + 8;
  std::memcpy(bad.data() + 8, &lied, 8);
  EXPECT_THROW(decompress_payload(as_bytes(bad)), std::invalid_argument);

  // Raw-CRC mismatch.
  bad = good;
  bad[16] ^= 0x01;
  EXPECT_THROW(decompress_payload(as_bytes(bad)), std::invalid_argument);

  // Block-count lies, both directions.
  for (const int delta : {-1, 1}) {
    bad = good;
    std::uint32_t count = 0;
    std::memcpy(&count, bad.data() + 20, 4);
    count = static_cast<std::uint32_t>(static_cast<int>(count) + delta);
    std::memcpy(bad.data() + 20, &count, 4);
    EXPECT_THROW(decompress_payload(as_bytes(bad)), std::invalid_argument);
  }

  // Trailing garbage after the last block.
  bad = good + '\0';
  EXPECT_THROW(decompress_payload(as_bytes(bad)), std::invalid_argument);
}

/// Flipping any single byte of a compressed container either throws or
/// (for a flip the block stream can absorb) still decodes to exactly the
/// original bytes — the raw CRC32C makes silently-wrong output require a
/// checksum collision. Never a crash, never different bytes. ASan/UBSan
/// runs of this sweep prove the decoder reads nothing out of bounds on
/// any of the mutated streams.
TEST(CodecTest, EverySingleByteFlipThrowsOrDecodesIdentically) {
  const std::string good = golden_container();
  const std::vector<std::byte> want = decompress_payload(as_bytes(good));
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    try {
      const std::vector<std::byte> got = decompress_payload(as_bytes(bad));
      EXPECT_EQ(got, want) << "byte " << i << " flip decoded to different bytes";
    } catch (const std::invalid_argument&) {
      // Rejected cleanly: the expected outcome for nearly every flip.
    }
  }
}

// --- the decode kernels, through hand-built containers ---

/// Reference LSB-first bitpacker, mirroring the encoder's layout.
std::vector<std::byte> pack_bits(const std::vector<std::uint64_t>& vals, unsigned width) {
  std::vector<std::byte> out;
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (const std::uint64_t v : vals) {
    acc |= v << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      out.push_back(static_cast<std::byte>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out.push_back(static_cast<std::byte>(acc & 0xFF));
  return out;
}

void append_varint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>((v & 0x7F) | 0x80));
  out.push_back(static_cast<char>(v));
}

/// A one-block container whose block `tag` decodes `enc` to `raw`.
std::string one_block_container(std::uint8_t tag, const std::string& raw,
                                const std::string& enc) {
  std::string out(kContainerMagic);
  const std::uint64_t raw_size = raw.size();
  const std::uint32_t raw_crc = crc32c(raw);
  const std::uint32_t blocks = 1;
  out.append(reinterpret_cast<const char*>(&raw_size), sizeof raw_size);
  out.append(reinterpret_cast<const char*>(&raw_crc), sizeof raw_crc);
  out.append(reinterpret_cast<const char*>(&blocks), sizeof blocks);
  out.push_back(static_cast<char>(tag));
  append_varint(out, raw.size());
  append_varint(out, enc.size());
  out += enc;
  return out;
}

template <typename T>
std::string raw_lanes(const std::vector<T>& lanes) {
  return {reinterpret_cast<const char*>(lanes.data()), lanes.size() * sizeof(T)};
}

/// The bit unpacker at every width the encoder may choose, on counts
/// around its 8-byte load window, with each run ending on the width's
/// largest value so the top bit of the last load is read.
TEST(CodecTest, PackF64BlocksDecodeAtEveryWidth) {
  std::mt19937_64 rng(0x0B5C0DEC);
  for (unsigned width = 1; width <= 51; ++width) {
    const std::uint64_t max = (1ull << width) - 1;
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8}, std::size_t{15},
          std::size_t{16}, std::size_t{17}, std::size_t{64}, std::size_t{100},
          std::size_t{201}}) {
      std::vector<std::uint64_t> vals(count);
      for (auto& v : vals) v = rng() & max;
      vals.back() = max;
      std::vector<double> want(count);
      for (std::size_t i = 0; i < count; ++i) want[i] = static_cast<double>(vals[i]);
      const std::vector<std::byte> packed = pack_bits(vals, width);
      std::string enc(1, static_cast<char>(width));
      enc.append(reinterpret_cast<const char*>(packed.data()), packed.size());
      const std::string raw = raw_lanes(want);
      const std::vector<std::byte> got =
          decompress_payload(as_bytes(one_block_container(kBlockPackF64, raw, enc)));
      ASSERT_EQ(got, to_bytes(as_bytes(raw))) << "width " << width << " count " << count;
    }
  }
}

/// The zigzag prefix sum wraps mod 2^32 in both directions.
TEST(CodecTest, DeltaU32BlocksDecodeWrappingDeltas) {
  std::mt19937_64 rng(0x51D2A6);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{63}, std::size_t{1000}}) {
    std::vector<std::uint32_t> values(n);
    std::string enc;
    std::uint32_t prev = 0;
    for (std::uint32_t& v : values) {
      v = static_cast<std::uint32_t>(rng());
      const auto delta = static_cast<std::int32_t>(v - prev);
      append_varint(enc, (static_cast<std::uint32_t>(delta) << 1) ^
                             static_cast<std::uint32_t>(delta >> 31));
      prev = v;
    }
    const std::string raw = raw_lanes(values);
    const std::vector<std::byte> got =
        decompress_payload(as_bytes(one_block_container(kBlockDeltaU32, raw, enc)));
    ASSERT_EQ(got, to_bytes(as_bytes(raw))) << "n " << n;
  }
}

/// The message `decompress_payload` throws on `container`, or "decoded".
std::string decode_error(const std::string& container) {
  try {
    (void)decompress_payload(as_bytes(container));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "decoded";
}

/// A delta block declaring 2^33 raw bytes over 0 or 1 encoded bytes: each
/// varint takes at least one byte, so the lane count is refused before
/// the decoder allocates anything, instead of after it has zero-filled
/// gigabytes.
TEST(CodecTest, DeltaBlocksWithMoreLanesThanBytesAreRefusedBeforeAllocating) {
  const std::uint64_t raw_len = 1ULL << 33;
  const std::size_t peak_before = obs::peak_rss_bytes();
  for (const auto& [tag, message] :
       {std::pair{kBlockDeltaU32, "archive: delta-u32 block declares more lanes than it has bytes"},
        std::pair{kBlockDeltaU64,
                  "archive: delta-u64 block declares more lanes than it has bytes"}}) {
    for (const std::string& enc : {std::string(), std::string(1, '\x02')}) {
      std::string container(kContainerMagic);
      const std::uint32_t raw_crc = 0;
      const std::uint32_t blocks = 1;
      container.append(reinterpret_cast<const char*>(&raw_len), sizeof raw_len);
      container.append(reinterpret_cast<const char*>(&raw_crc), sizeof raw_crc);
      container.append(reinterpret_cast<const char*>(&blocks), sizeof blocks);
      container.push_back(static_cast<char>(tag));
      append_varint(container, raw_len);
      append_varint(container, enc.size());
      container += enc;
      EXPECT_EQ(decode_error(container), message)
          << "tag " << static_cast<int>(tag) << ", " << enc.size() << " encoded bytes";
    }
  }
  if (!kSanitized) {
    EXPECT_LT(obs::peak_rss_bytes() - peak_before, std::size_t{64} << 20);
  }
}

/// A hand-built front-coded block over `keys`: the count, then per key
/// the length it shares with its predecessor, its suffix length and the
/// suffix, as raw bytes or nibble-packed over the archive charset.
std::string front_code(const std::vector<std::string>& keys, bool packed) {
  constexpr std::string_view charset = "0123456789.|:-_/";
  std::string enc;
  append_varint(enc, keys.size());
  std::string_view prev;
  for (const std::string& key : keys) {
    std::size_t shared = 0;
    while (shared < std::min(prev.size(), key.size()) && prev[shared] == key[shared]) ++shared;
    const std::string_view suffix = std::string_view(key).substr(shared);
    append_varint(enc, shared);
    append_varint(enc, suffix.size());
    if (!packed) {
      enc += suffix;
    } else {
      for (std::size_t c = 0; c < suffix.size(); c += 2) {
        std::size_t pair = charset.find(suffix[c]);
        if (c + 1 < suffix.size()) pair |= charset.find(suffix[c + 1]) << 4;
        enc.push_back(static_cast<char>(pair));
      }
    }
    prev = key;
  }
  return enc;
}

/// The key region the front-coded block stands for: the u64 count, then
/// per key its u32 length and bytes.
std::string key_region(const std::vector<std::string>& keys) {
  std::string raw;
  const std::uint64_t count = keys.size();
  raw.append(reinterpret_cast<const char*>(&count), sizeof count);
  for (const std::string& key : keys) {
    const auto len = static_cast<std::uint32_t>(key.size());
    raw.append(reinterpret_cast<const char*>(&len), sizeof len);
    raw += key;
  }
  return raw;
}

/// Keys rebuilt in place: empty keys, repeats (all shared, no suffix),
/// keys that extend or cut their predecessor, and suffixes of odd and
/// even length, packed and unpacked.
TEST(CodecTest, FrontCodedBlocksRebuildEveryKeyInPlace) {
  const std::vector<std::string> quads = {"",           "",        "1",        "1.2",
                                          "1.2.3.4",    "1.2.3.45", "1.2.3.45", "10.0.0.1",
                                          "10.0.0.100", "2",       "2/3:4-5_6|7", "255.255.255.255"};
  const std::vector<std::string> labels = {"",      "alpha", "alphabet", "alphanumeric", "b",
                                           "b\xff", "beta",  "beta",     std::string(300, 'z')};
  for (const auto& [tag, keys] : {std::pair{kBlockFrontStrPack, quads},
                                  std::pair{kBlockFrontStr, quads},
                                  std::pair{kBlockFrontStr, labels}}) {
    const std::string raw = key_region(keys);
    const std::string enc = front_code(keys, tag == kBlockFrontStrPack);
    const std::vector<std::byte> got =
        decompress_payload(as_bytes(one_block_container(tag, raw, enc)));
    EXPECT_EQ(got, to_bytes(as_bytes(raw)))
        << "tag " << static_cast<int>(tag) << ", " << keys.size() << " keys";
  }
}

}  // namespace
}  // namespace obscorr::archive::codec
