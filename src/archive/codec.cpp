#include "archive/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "archive/checksum.hpp"
#include "common/error.hpp"

namespace obscorr::archive::codec {

namespace {

constexpr std::uint64_t kMaxRawSize = 1ULL << 40;
constexpr std::uint64_t kMaxBlockRawLen = 1ULL << 33;
constexpr std::uint32_t kMaxBlockCount = 1u << 24;
constexpr std::uint64_t kMaxKeyCount = 1ULL << 22;
constexpr std::uint32_t kMaxKeyLen = 1u << 20;

/// 4-bit packing charset for front-coded suffixes: covers the dotted
/// quads and label-style keys the assoc arrays actually hold. A suffix
/// with any other byte falls back to the unpacked front-coded form.
constexpr char kPackCharset[16] = {'0', '1', '2', '3', '4', '5', '6', '7',
                                   '8', '9', '.', '|', ':', '-', '_', '/'};

constexpr std::array<std::int8_t, 256> make_charset_index() {
  std::array<std::int8_t, 256> idx{};
  for (auto& v : idx) v = -1;
  for (std::size_t i = 0; i < sizeof kPackCharset; ++i) {
    idx[static_cast<unsigned char>(kPackCharset[i])] = static_cast<std::int8_t>(i);
  }
  return idx;
}
constexpr std::array<std::int8_t, 256> kCharsetIndex = make_charset_index();

/// The two suffix characters a packed byte stands for, low nibble first.
constexpr std::array<std::array<char, 2>, 256> make_pair_chars() {
  std::array<std::array<char, 2>, 256> pairs{};
  for (std::size_t b = 0; b < pairs.size(); ++b) {
    pairs[b] = {kPackCharset[b & 0x0F], kPackCharset[b >> 4]};
  }
  return pairs;
}
constexpr std::array<std::array<char, 2>, 256> kPairChars = make_pair_chars();

std::uint32_t zigzag32(std::int32_t v) {
  return (static_cast<std::uint32_t>(v) << 1) ^ static_cast<std::uint32_t>(v >> 31);
}

std::uint64_t zigzag64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::uint64_t unzigzag64(std::uint64_t z) { return (z >> 1) ^ (~(z & 1) + 1); }

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Bounds-checked LEB128 read over `bytes` at `pos` (advanced on return).
std::uint64_t get_varint(std::span<const std::byte> bytes, std::size_t& pos) {
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    OBSCORR_REQUIRE(pos < bytes.size(), "archive: truncated varint in compressed stream");
    const auto b = static_cast<std::uint8_t>(bytes[pos++]);
    OBSCORR_REQUIRE(shift != 63 || (b & 0x7E) == 0,
                    "archive: varint overflow in compressed stream");
    value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return value;
  }
  OBSCORR_REQUIRE(false, "archive: unterminated varint in compressed stream");
  return 0;  // unreachable
}

std::uint64_t load_u64(std::span<const std::byte> bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof v);
  return v;
}

std::uint32_t load_u32(std::span<const std::byte> bytes, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof v);
  return v;
}

// ---------------------------------------------------------------- encode

/// One encoded block: the tag plus the bytes that stand in for
/// `raw_len` raw payload bytes.
struct Block {
  std::uint8_t tag = kBlockRaw;
  std::uint64_t raw_len = 0;
  std::string enc;
};

/// Append `section` as a raw passthrough block.
void add_raw(std::vector<Block>& blocks, std::span<const std::byte> section) {
  if (section.empty()) return;
  Block b;
  b.tag = kBlockRaw;
  b.raw_len = section.size();
  b.enc.assign(reinterpret_cast<const char*>(section.data()), section.size());
  blocks.push_back(std::move(b));
}

/// Append an encoded block, or fall back to raw when it did not shrink.
void add_or_raw(std::vector<Block>& blocks, std::span<const std::byte> section,
                std::uint8_t tag, std::string enc) {
  if (enc.size() >= section.size()) {
    add_raw(blocks, section);
    return;
  }
  Block b;
  b.tag = tag;
  b.raw_len = section.size();
  b.enc = std::move(enc);
  blocks.push_back(std::move(b));
}

/// Zigzag-delta-varint a u32 array section (wrapping deltas, so the
/// codec is total: sorted inputs get 1-byte deltas, anything else still
/// round-trips).
void add_delta_u32(std::vector<Block>& blocks, std::span<const std::byte> section) {
  const std::size_t count = section.size() / sizeof(std::uint32_t);
  std::string enc;
  enc.reserve(count + count / 2);
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t v = load_u32(section, i * sizeof(std::uint32_t));
    put_varint(enc, zigzag32(static_cast<std::int32_t>(v - prev)));
    prev = v;
  }
  add_or_raw(blocks, section, kBlockDeltaU32, std::move(enc));
}

void add_delta_u64(std::vector<Block>& blocks, std::span<const std::byte> section) {
  const std::size_t count = section.size() / sizeof(std::uint64_t);
  std::string enc;
  enc.reserve(count * 2);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = load_u64(section, i * sizeof(std::uint64_t));
    put_varint(enc, zigzag64(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  add_or_raw(blocks, section, kBlockDeltaU64, std::move(enc));
}

/// Fixed-width bitpack of an f64 section whose values are all exact
/// unsigned integers below 2^51 (packet counts are); otherwise raw.
void add_pack_f64(std::vector<Block>& blocks, std::span<const std::byte> section) {
  const std::size_t count = section.size() / sizeof(double);
  std::uint64_t max_value = 0;
  bool packable = true;
  for (std::size_t i = 0; i < count && packable; ++i) {
    double d = 0.0;
    std::memcpy(&d, section.data() + i * sizeof(double), sizeof d);
    const auto u = static_cast<std::uint64_t>(d);
    packable = d >= 0.0 && u < (1ULL << 51) && static_cast<double>(u) == d;
    max_value = std::max(max_value, u);
  }
  if (!packable) {
    add_raw(blocks, section);
    return;
  }
  const unsigned width = static_cast<unsigned>(std::bit_width(max_value | 1));
  std::string enc;
  enc.reserve(1 + (count * width + 7) / 8);
  enc.push_back(static_cast<char>(width));
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    double d = 0.0;
    std::memcpy(&d, section.data() + i * sizeof(double), sizeof d);
    acc |= static_cast<std::uint64_t>(d) << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      enc.push_back(static_cast<char>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) enc.push_back(static_cast<char>(acc & 0xFF));
  add_or_raw(blocks, section, kBlockPackF64, std::move(enc));
}

/// A "u64 count + count * (u32 len + bytes)" key region inside a payload.
struct KeyRegion {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<std::string_view> keys;
};

/// Parse the key region starting at `off`; throws on malformation (the
/// caller treats that as "keep the entry raw").
KeyRegion parse_key_region(std::span<const std::byte> payload, std::size_t off) {
  KeyRegion region;
  region.begin = off;
  OBSCORR_REQUIRE(payload.size() - off >= 8, "codec: truncated key count");
  const std::uint64_t count = load_u64(payload, off);
  OBSCORR_REQUIRE(count <= kMaxKeyCount, "codec: implausible key count");
  std::size_t pos = off + 8;
  region.keys.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    OBSCORR_REQUIRE(payload.size() - pos >= 4, "codec: truncated key length");
    const std::uint32_t len = load_u32(payload, pos);
    pos += 4;
    OBSCORR_REQUIRE(len <= kMaxKeyLen && payload.size() - pos >= len,
                    "codec: truncated key bytes");
    region.keys.emplace_back(reinterpret_cast<const char*>(payload.data()) + pos, len);
    pos += len;
  }
  region.end = pos;
  return region;
}

/// Front-code a sorted key region: per key, the byte length shared with
/// its predecessor plus the fresh suffix — nibble-packed when every
/// suffix byte is in the 16-char archive charset (dotted quads are).
void add_front_keys(std::vector<Block>& blocks, std::span<const std::byte> payload,
                    const KeyRegion& region) {
  const auto section = payload.subspan(region.begin, region.end - region.begin);
  std::vector<std::uint32_t> shared(region.keys.size(), 0);
  bool packable = true;
  for (std::size_t i = 0; i < region.keys.size(); ++i) {
    const std::string_view key = region.keys[i];
    if (i > 0) {
      const std::string_view prev = region.keys[i - 1];
      const std::size_t limit = std::min(prev.size(), key.size());
      std::size_t s = 0;
      while (s < limit && prev[s] == key[s]) ++s;
      shared[i] = static_cast<std::uint32_t>(s);
    }
    for (std::size_t c = shared[i]; c < key.size() && packable; ++c) {
      packable = kCharsetIndex[static_cast<unsigned char>(key[c])] >= 0;
    }
  }
  std::string enc;
  enc.reserve(section.size() / 2);
  put_varint(enc, region.keys.size());
  for (std::size_t i = 0; i < region.keys.size(); ++i) {
    const std::string_view suffix = region.keys[i].substr(shared[i]);
    put_varint(enc, shared[i]);
    put_varint(enc, suffix.size());
    if (packable) {
      std::uint8_t nibble_pair = 0;
      for (std::size_t c = 0; c < suffix.size(); ++c) {
        const auto nibble =
            static_cast<std::uint8_t>(kCharsetIndex[static_cast<unsigned char>(suffix[c])]);
        if (c % 2 == 0) {
          nibble_pair = nibble;
          if (c + 1 == suffix.size()) enc.push_back(static_cast<char>(nibble_pair));
        } else {
          enc.push_back(static_cast<char>(nibble_pair | (nibble << 4)));
        }
      }
    } else {
      enc.append(suffix);
    }
  }
  add_or_raw(blocks, section, packable ? kBlockFrontStrPack : kBlockFrontStr,
             std::move(enc));
}

/// Section split of an OBSCGBL2 matrix payload (see gbl/matrix_view.hpp).
void matrix_sections(std::span<const std::byte> payload, std::vector<Block>& blocks) {
  OBSCORR_REQUIRE(payload.size() >= 24, "codec: truncated matrix header");
  const std::uint64_t rows = load_u64(payload, 8);
  const std::uint64_t nnz = load_u64(payload, 16);
  OBSCORR_REQUIRE(rows <= payload.size() / 4 && nnz <= payload.size() / 4,
                  "codec: implausible matrix counts");
  const auto pad8 = [](std::size_t n) { return (n + 7) & ~std::size_t{7}; };
  const std::size_t ids_at = 24;
  const std::size_t ptr_at = pad8(ids_at + rows * 4);
  const std::size_t col_at = ptr_at + (rows + 1) * 8;
  const std::size_t val_at = pad8(col_at + nnz * 4);
  OBSCORR_REQUIRE(val_at + nnz * 8 == payload.size(), "codec: matrix section sizes disagree");
  add_raw(blocks, payload.first(24));
  add_delta_u32(blocks, payload.subspan(ids_at, rows * 4));
  add_raw(blocks, payload.subspan(ids_at + rows * 4, ptr_at - (ids_at + rows * 4)));
  add_delta_u64(blocks, payload.subspan(ptr_at, (rows + 1) * 8));
  add_delta_u32(blocks, payload.subspan(col_at, nnz * 4));
  add_raw(blocks, payload.subspan(col_at + nnz * 4, val_at - (col_at + nnz * 4)));
  add_pack_f64(blocks, payload.subspan(val_at, nnz * 8));
}

/// Section split of a source-reduction payload (u64 nnz, u32 ids, pad8,
/// f64 values; see study_archive.hpp).
void sources_sections(std::span<const std::byte> payload, std::vector<Block>& blocks) {
  OBSCORR_REQUIRE(payload.size() >= 8, "codec: truncated source vector");
  const std::uint64_t nnz = load_u64(payload, 0);
  OBSCORR_REQUIRE(nnz <= payload.size() / 4, "codec: implausible source count");
  const auto pad8 = [](std::size_t n) { return (n + 7) & ~std::size_t{7}; };
  const std::size_t ids_at = 8;
  const std::size_t val_at = pad8(ids_at + nnz * 4);
  OBSCORR_REQUIRE(val_at + nnz * 8 == payload.size(), "codec: source section sizes disagree");
  add_raw(blocks, payload.first(8));
  add_delta_u32(blocks, payload.subspan(ids_at, nnz * 4));
  add_raw(blocks, payload.subspan(ids_at + nnz * 4, val_at - (ids_at + nnz * 4)));
  add_pack_f64(blocks, payload.subspan(val_at, nnz * 8));
}

/// Section split of a D4M assoc-array binary starting at `off` (see
/// d4m/assoc.cpp write_binary): magic, row keys, col keys, u64 nnz,
/// u64 row_ptr[rows+1], u32 col_idx[nnz], f64 val[nnz]. The numeric
/// arrays are unaligned in this format, so every section is sliced by
/// byte offset and the codecs memcpy lanes out.
void assoc_sections(std::span<const std::byte> payload, std::size_t off,
                    std::vector<Block>& blocks) {
  OBSCORR_REQUIRE(payload.size() - off >= 8, "codec: truncated assoc magic");
  add_raw(blocks, payload.subspan(off, 8));
  const KeyRegion rows = parse_key_region(payload, off + 8);
  add_front_keys(blocks, payload, rows);
  const KeyRegion cols = parse_key_region(payload, rows.end);
  add_front_keys(blocks, payload, cols);
  std::size_t pos = cols.end;
  OBSCORR_REQUIRE(payload.size() - pos >= 8, "codec: truncated assoc entry count");
  const std::uint64_t nnz = load_u64(payload, pos);
  OBSCORR_REQUIRE(nnz <= (payload.size() - pos) / 4, "codec: implausible assoc entry count");
  add_raw(blocks, payload.subspan(pos, 8));
  pos += 8;
  const std::size_t ptr_bytes = (rows.keys.size() + 1) * 8;
  OBSCORR_REQUIRE(payload.size() - pos >= ptr_bytes, "codec: truncated assoc offsets");
  add_delta_u64(blocks, payload.subspan(pos, ptr_bytes));
  pos += ptr_bytes;
  OBSCORR_REQUIRE(payload.size() - pos == nnz * 4 + nnz * 8,
                  "codec: assoc section sizes disagree");
  add_delta_u32(blocks, payload.subspan(pos, nnz * 4));
  add_pack_f64(blocks, payload.subspan(pos + nnz * 4, nnz * 8));
}

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

// ---------------------------------------------------------------- decode

void decode_raw(std::span<const std::byte> enc, std::uint64_t raw_len,
                std::vector<std::byte>& out) {
  OBSCORR_REQUIRE(enc.size() == raw_len, "archive: raw block length mismatch");
  out.insert(out.end(), enc.begin(), enc.end());
}

/// Unpack `count` values of `width` bits (LSB-first within the packed
/// stream) as doubles into `out`, 8 bytes each, which need not be
/// aligned. Values are exact unsigned integers < 2^width, width in
/// [1, 51]. `packed` must hold ceil(count*width/8) bytes.
void unpack_f64(std::span<const std::byte> packed, unsigned width, std::size_t count,
                std::byte* out) {
  const std::uint64_t mask = (1ULL << width) - 1;
  std::size_t bit = 0;
  for (std::size_t i = 0; i < count; ++i, bit += width) {
    const std::size_t byte = bit >> 3;
    // A value spans at most ceil((7 + 51) / 8) = 8 bytes; near the tail
    // the window is loaded short so the read never leaves the span.
    std::uint64_t window = 0;
    std::memcpy(&window, packed.data() + byte, std::min<std::size_t>(8, packed.size() - byte));
    const auto value = static_cast<double>((window >> (bit & 7)) & mask);
    std::memcpy(out + i * sizeof value, &value, sizeof value);
  }
}

// The delta decoders rebuild each lane from its zigzag-encoded wrapping
// delta, out[i] = out[i-1] + unzigzag(zz[i]) (out[-1] = 0), straight into
// `out`. Every varint takes at least one byte, so a block declaring more
// lanes than it has encoded bytes is rejected before `out` grows.

void decode_delta_u32(std::span<const std::byte> enc, std::uint64_t raw_len,
                      std::vector<std::byte>& out) {
  OBSCORR_REQUIRE(raw_len % sizeof(std::uint32_t) == 0,
                  "archive: delta-u32 block size not a lane multiple");
  const std::uint64_t count = raw_len / sizeof(std::uint32_t);
  OBSCORR_REQUIRE(count <= enc.size(),
                  "archive: delta-u32 block declares more lanes than it has bytes");
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(raw_len));
  std::byte* const lanes = out.data() + at;
  std::size_t pos = 0;
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t z = get_varint(enc, pos);
    OBSCORR_REQUIRE(z <= 0xFFFFFFFFULL, "archive: delta-u32 varint exceeds 32 bits");
    acc += static_cast<std::uint32_t>(unzigzag64(z));
    std::memcpy(lanes + i * sizeof acc, &acc, sizeof acc);
  }
  OBSCORR_REQUIRE(pos == enc.size(), "archive: trailing bytes in delta-u32 block");
}

void decode_delta_u64(std::span<const std::byte> enc, std::uint64_t raw_len,
                      std::vector<std::byte>& out) {
  OBSCORR_REQUIRE(raw_len % sizeof(std::uint64_t) == 0,
                  "archive: delta-u64 block size not a lane multiple");
  const std::uint64_t count = raw_len / sizeof(std::uint64_t);
  OBSCORR_REQUIRE(count <= enc.size(),
                  "archive: delta-u64 block declares more lanes than it has bytes");
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(raw_len));
  std::byte* const lanes = out.data() + at;
  std::size_t pos = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += unzigzag64(get_varint(enc, pos));
    std::memcpy(lanes + i * sizeof acc, &acc, sizeof acc);
  }
  OBSCORR_REQUIRE(pos == enc.size(), "archive: trailing bytes in delta-u64 block");
}

void decode_pack_f64(std::span<const std::byte> enc, std::uint64_t raw_len,
                     std::vector<std::byte>& out) {
  OBSCORR_REQUIRE(raw_len % sizeof(double) == 0,
                  "archive: bitpack block size not a lane multiple");
  OBSCORR_REQUIRE(!enc.empty(), "archive: truncated bitpack block");
  const auto width = static_cast<unsigned>(static_cast<std::uint8_t>(enc[0]));
  OBSCORR_REQUIRE(width >= 1 && width <= 51, "archive: bitpack width out of range");
  const std::size_t count = static_cast<std::size_t>(raw_len / sizeof(double));
  OBSCORR_REQUIRE(enc.size() - 1 == (count * width + 7) / 8,
                  "archive: bitpack block length mismatch");
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(raw_len));
  unpack_f64(enc.subspan(1), width, count, out.data() + at);
}

/// Each key is rebuilt in place in `out`: its length, then its shared
/// prefix copied from the previous key's bytes (already in `out`), then
/// its suffix; a packed suffix expands a byte at a time through
/// kPairChars.
void decode_front_str(std::span<const std::byte> enc, std::uint64_t raw_len, bool packed,
                      std::vector<std::byte>& out) {
  const std::size_t at = out.size();
  std::size_t pos = 0;
  const std::uint64_t count = get_varint(enc, pos);
  OBSCORR_REQUIRE(count <= kMaxKeyCount, "archive: implausible front-coded key count");
  out.resize(at + sizeof count);
  std::memcpy(out.data() + at, &count, sizeof count);
  std::size_t prev_at = 0;  // the previous key's bytes, as an offset into `out`
  std::size_t prev_len = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t shared = get_varint(enc, pos);
    const std::uint64_t suffix_len = get_varint(enc, pos);
    OBSCORR_REQUIRE(shared <= prev_len, "archive: front-coded shared length exceeds key");
    OBSCORR_REQUIRE(suffix_len <= kMaxKeyLen, "archive: implausible front-coded key length");
    const auto suffix_bytes =
        static_cast<std::size_t>(packed ? (suffix_len + 1) / 2 : suffix_len);
    OBSCORR_REQUIRE(enc.size() - pos >= suffix_bytes, "archive: truncated front-coded suffix");
    const auto key_len = static_cast<std::size_t>(shared + suffix_len);
    const auto len = static_cast<std::uint32_t>(key_len);
    OBSCORR_REQUIRE(sizeof len + key_len <= raw_len &&
                        out.size() - at <= raw_len - sizeof len - key_len,
                    "archive: front-coded block overruns its declared size");
    const std::size_t key_at = out.size() + sizeof len;
    out.resize(key_at + key_len);
    std::byte* key = out.data() + key_at;
    std::memcpy(key - sizeof len, &len, sizeof len);
    std::memcpy(key, out.data() + prev_at, static_cast<std::size_t>(shared));
    std::byte* suffix = key + shared;
    const std::byte* src = enc.data() + pos;
    if (packed) {
      for (std::size_t c = 0; c < suffix_len / 2; ++c) {
        std::memcpy(suffix + 2 * c, kPairChars[static_cast<std::uint8_t>(src[c])].data(), 2);
      }
      if (suffix_len % 2 == 1) {
        suffix[suffix_len - 1] = static_cast<std::byte>(
            kPackCharset[static_cast<std::uint8_t>(src[suffix_len / 2]) & 0x0F]);
      }
    } else {
      std::memcpy(suffix, src, suffix_bytes);
    }
    pos += suffix_bytes;
    prev_at = key_at;
    prev_len = key_len;
  }
  OBSCORR_REQUIRE(pos == enc.size(), "archive: trailing bytes in front-coded block");
  OBSCORR_REQUIRE(out.size() - at == raw_len,
                  "archive: front-coded block size mismatch");
}

}  // namespace

std::optional<std::uint64_t> decoded_size(std::span<const std::byte> stored) {
  if (stored.size() < kContainerHeaderBytes) return std::nullopt;
  if (std::string_view(reinterpret_cast<const char*>(stored.data()), 8) != kContainerMagic) {
    return std::nullopt;
  }
  const std::uint64_t raw_size = load_u64(stored, 8);
  if (raw_size > kMaxRawSize) return std::nullopt;
  return raw_size;
}

bool has_layout(std::string_view name) {
  return ends_with(name, "/matrix") || ends_with(name, "/sources") ||
         ends_with(name, "/assoc") || name.substr(0, 6) == "month/";
}

std::optional<std::string> compress_entry(std::string_view name,
                                          std::span<const std::byte> payload) {
  // Below 64 bytes the framing overhead dominates.
  if (payload.size() < 64 || !has_layout(name)) return std::nullopt;
  std::vector<Block> blocks;
  try {
    if (ends_with(name, "/matrix")) {
      matrix_sections(payload, blocks);
    } else if (ends_with(name, "/sources")) {
      sources_sections(payload, blocks);
    } else if (ends_with(name, "/assoc")) {
      assoc_sections(payload, 0, blocks);
    } else {
      // A month: fixed 24-byte header, then the assoc array's own binary.
      OBSCORR_REQUIRE(payload.size() >= 24, "codec: truncated month header");
      add_raw(blocks, payload.first(24));
      assoc_sections(payload, 24, blocks);
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // unknown shape: keep the raw frame
  }
  if (blocks.size() > kMaxBlockCount) return std::nullopt;

  std::string out;
  out.reserve(payload.size() / 2);
  out.append(kContainerMagic);
  const std::uint64_t raw_size = payload.size();
  const std::uint32_t raw_crc = crc32c(payload);
  const auto block_count = static_cast<std::uint32_t>(blocks.size());
  out.append(reinterpret_cast<const char*>(&raw_size), sizeof raw_size);
  out.append(reinterpret_cast<const char*>(&raw_crc), sizeof raw_crc);
  out.append(reinterpret_cast<const char*>(&block_count), sizeof block_count);
  for (const Block& b : blocks) {
    out.push_back(static_cast<char>(b.tag));
    put_varint(out, b.raw_len);
    put_varint(out, b.enc.size());
    out.append(b.enc);
  }
  if (out.size() >= payload.size()) return std::nullopt;  // incompressible entry
  return out;
}

std::vector<std::byte> decompress_payload(std::span<const std::byte> stored) {
  OBSCORR_REQUIRE(stored.size() >= kContainerHeaderBytes,
                  "archive: truncated compressed payload");
  OBSCORR_REQUIRE(
      std::string_view(reinterpret_cast<const char*>(stored.data()), 8) == kContainerMagic,
      "archive: bad compressed payload magic");
  const std::uint64_t raw_size = load_u64(stored, 8);
  const std::uint32_t raw_crc = load_u32(stored, 16);
  const std::uint32_t block_count = load_u32(stored, 20);
  OBSCORR_REQUIRE(raw_size <= kMaxRawSize, "archive: implausible decoded size");
  OBSCORR_REQUIRE(block_count <= kMaxBlockCount, "archive: implausible block count");

  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(std::min(raw_size, std::uint64_t{1} << 26)));
  std::size_t pos = kContainerHeaderBytes;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    OBSCORR_REQUIRE(pos < stored.size(), "archive: truncated compressed stream");
    const auto tag = static_cast<std::uint8_t>(stored[pos++]);
    OBSCORR_REQUIRE(tag <= kMaxBlockTag, "archive: codec tag out of range");
    const std::uint64_t raw_len = get_varint(stored, pos);
    const std::uint64_t enc_len = get_varint(stored, pos);
    OBSCORR_REQUIRE(raw_len <= kMaxBlockRawLen && raw_len <= raw_size - out.size(),
                    "archive: block exceeds the declared decoded size");
    OBSCORR_REQUIRE(enc_len <= stored.size() - pos, "archive: truncated compressed stream");
    const auto enc = stored.subspan(pos, static_cast<std::size_t>(enc_len));
    pos += static_cast<std::size_t>(enc_len);
    switch (tag) {
      case kBlockRaw: decode_raw(enc, raw_len, out); break;
      case kBlockDeltaU32: decode_delta_u32(enc, raw_len, out); break;
      case kBlockDeltaU64: decode_delta_u64(enc, raw_len, out); break;
      case kBlockPackF64: decode_pack_f64(enc, raw_len, out); break;
      case kBlockFrontStr: decode_front_str(enc, raw_len, /*packed=*/false, out); break;
      case kBlockFrontStrPack: decode_front_str(enc, raw_len, /*packed=*/true, out); break;
      default: OBSCORR_REQUIRE(false, "archive: codec tag out of range");
    }
  }
  OBSCORR_REQUIRE(pos == stored.size(), "archive: trailing bytes after compressed blocks");
  OBSCORR_REQUIRE(out.size() == raw_size,
                  "archive: decoded size does not match the declared size");
  OBSCORR_REQUIRE(crc32c({out.data(), out.size()}) == raw_crc,
                  "archive: decoded payload fails its checksum");
  return out;
}

}  // namespace obscorr::archive::codec
