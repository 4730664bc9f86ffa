#pragma once
/// \file checksum.hpp
/// Integrity primitives for the study archive. Every persisted payload
/// carries a CRC32C (Castagnoli) checksum — the polynomial used by
/// iSCSI, ext4 and the SSE4.2 crc32 instruction — so any single-byte
/// corruption of an archived entry is detected before its bytes reach a
/// parser. FNV-1a/64 provides the scenario fingerprint that binds an
/// archive to the exact configuration that produced it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace obscorr::archive {

/// CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78) of `bytes`,
/// starting from `seed` (pass a previous result to checksum in chunks).
std::uint32_t crc32c(std::span<const std::byte> bytes, std::uint32_t seed = 0);

/// Convenience overload over character data.
std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed = 0);

/// CRC32C of the concatenation A·B from `crc_a` = crc32c(A), `crc_b` =
/// crc32c(B) and `len_b` = |B|, in O(log len_b) without reading either
/// (zlib's crc32_combine method over the Castagnoli polynomial). Lets a
/// writer chain a running CRC over a payload it has already checksummed.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b);

/// FNV-1a 64-bit hash; the archive's scenario fingerprint.
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace obscorr::archive
