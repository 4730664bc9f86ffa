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
/// Every array keyed by addresses orders its rows with `text_key`, so
/// this module owns that order.

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/ipv4.hpp"
#include "d4m/assoc.hpp"

namespace obscorr::d4m {

/// An address's dotted quad, NUL-padded to 16 bytes and read as two
/// big-endian words: integer order is std::string order of the text
/// ("1.10.0.0" < "1.2.0.0"), so sorting keys sorts row keys.
using IpKey = std::array<std::uint64_t, 2>;

/// The key of `ip`'s dotted quad.
IpKey text_key(Ipv4 ip);

/// The dotted quad `key` encodes (inverse of `text_key`).
std::string key_text(const IpKey& key);

/// One-column array over unique addresses given in any order: row
/// `addresses[i]`'s dotted quad holds `values[i]` in column `col_key`.
/// Throws std::invalid_argument when an address repeats or the spans
/// differ in length.
AssocArray from_addresses(std::span<const std::uint32_t> addresses,
                          std::span<const double> values, std::string col_key);

}  // namespace obscorr::d4m
