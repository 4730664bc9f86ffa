#pragma once
/// \file gbl_bridge.hpp
/// Bridge between GraphBLAS-lite results and D4M associative arrays.
///
/// The paper's workflow: network quantities are computed from hypersparse
/// GraphBLAS matrices, then "the reduced results are converted to D4M
/// associative arrays to facilitate correlation" with the GreyNoise
/// associative arrays. `from_addresses` is that conversion: a reduced
/// vector's uint32 IPv4 ids and values (`v.indices()`, `v.values()`)
/// become a one-column associative array keyed by dotted-quad strings.
///
/// Every array keyed by addresses orders its rows by dotted-quad text,
/// and in memory it is keyed by one integer, this module's rank key:
/// `r[a] << 24 | r[b] << 16 | r[c] << 8 | r[d]`, where r is an octet's
/// rank among the texts "0" … "255" in byte order ("1" < "10" < "100"
/// < … < "2"). Its integer order is the std::string order of the dotted
/// quads, so sorts, merges and searches run on u32 keys and still visit
/// rows in the archive's order.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/ipv4.hpp"
#include "d4m/assoc.hpp"

namespace obscorr::d4m {

/// The rank key of `ip`: integer order is the std::string order of the
/// dotted quads ("1.10.0.0" < "1.2.0.0").
std::uint32_t ip_rank(Ipv4 ip);

/// The address whose rank key is `rank` (inverse of `ip_rank`).
Ipv4 rank_ip(std::uint32_t rank);

/// The rank key of `text` when it is a canonical dotted quad, the text
/// `Ipv4::to_string` prints; nullopt for any other text ("1.2.3.04",
/// "1.2.3", " 1.2.3.4", …), which no address-keyed row holds.
std::optional<std::uint32_t> parse_rank(std::string_view text);

/// One-column array over unique addresses given in any order: row
/// `addresses[i]`'s dotted quad holds `values[i]` in column `col_key`.
/// Throws std::invalid_argument when an address repeats or the spans
/// differ in length.
AssocArray from_addresses(std::span<const std::uint32_t> addresses,
                          std::span<const double> values, std::string col_key);

}  // namespace obscorr::d4m
