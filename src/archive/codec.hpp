#pragma once
/// \file codec.hpp
/// Per-entry block compression for the archive's OBSAENT2 frames.
///
/// A compressed entry payload is a self-describing container:
///
///   8 bytes  magic "OBSCODC1"
///   u64      raw (decoded) size
///   u32      CRC32C of the raw bytes
///   u32      block count
///   blocks:  u8 codec tag, varint raw length, varint encoded length,
///            encoded bytes
///
/// Blocks concatenate, in order, to exactly the raw payload. The encoder
/// is structure-aware: it parses the entry's own format (OBSCGBL2 matrix
/// sections, source-reduction vectors, D4M assoc arrays) and picks a
/// codec per array — delta + varint for sorted index arrays, fixed-width
/// bitpacking for the integer-valued f64 count arrays, front coding for
/// the sorted string key lists, raw passthrough for anything that does
/// not shrink. The decoder is structure-agnostic: it never needs to know
/// what the entry was, it just replays the blocks, then verifies the
/// declared size and the raw CRC. Any malformation — truncated stream,
/// codec tag out of range, declared size mismatch, failed CRC — throws
/// std::invalid_argument, same as every other hostile-input path.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace obscorr::archive::codec {

/// Container magic + fixed header size (magic, raw size, raw CRC, count).
inline constexpr std::string_view kContainerMagic = "OBSCODC1";
inline constexpr std::size_t kContainerHeaderBytes = 8 + 8 + 4 + 4;

/// One-byte block codec tags. Anything above kMaxBlockTag is hostile.
enum : std::uint8_t {
  kBlockRaw = 0,            ///< verbatim bytes
  kBlockDeltaU32 = 1,       ///< zigzag delta + varint over u32 lanes
  kBlockDeltaU64 = 2,       ///< zigzag delta + varint over u64 lanes
  kBlockPackF64 = 3,        ///< fixed-width bitpack of integer-valued doubles
  kBlockFrontStr = 4,       ///< front-coded length-prefixed string list
  kBlockFrontStrPack = 5,   ///< front coding + 4-bit charset-packed suffixes
};
inline constexpr std::uint8_t kMaxBlockTag = kBlockFrontStrPack;

/// True when entries named `name` are of a kind `compress_entry` has a
/// section layout for: matrices ("…/matrix"), source reductions
/// ("…/sources"), assoc arrays ("…/assoc") and months ("month/<m>").
/// Every other entry is stored raw.
bool has_layout(std::string_view name);

/// Compress entry `name`'s payload, choosing a codec per section of the
/// entry's own format. Returns nullopt when the payload is not a known
/// compressible entry kind, fails to parse, or does not shrink — the
/// caller keeps the raw OBSAENT1 frame in every one of those cases, so a
/// surprising payload is never a hard error on the write side.
std::optional<std::string> compress_entry(std::string_view name,
                                          std::span<const std::byte> payload);

/// Decode a compressed container back to the exact raw payload bytes.
/// Validates the header, every block, the declared decoded size and the
/// raw CRC32C; throws std::invalid_argument on any malformation.
std::vector<std::byte> decompress_payload(std::span<const std::byte> stored);

/// Declared decoded size of a compressed container, or nullopt when the
/// fixed header is malformed (log recovery uses this to classify frames
/// without running a full decode).
std::optional<std::uint64_t> decoded_size(std::span<const std::byte> stored);

}  // namespace obscorr::archive::codec
