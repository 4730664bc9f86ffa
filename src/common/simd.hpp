#pragma once
/// \file simd.hpp
/// The one hot loop that still has two bodies: CryptoPAN's AES-128. The
/// byte-wise FIPS-197 cipher is the reference, and an AES-NI kernel
/// (`crypt/aes128_simd.cpp`) runs where cpuid reports the `aes` bit. Both
/// give the same ciphertext for every block, so every output is
/// byte-identical whichever ran. Every other hot kernel (ingest, radix
/// sort, reductions, codec decode) has one portable body that runs the
/// same way on every host.
///
/// The choice is cpuid's, with two overrides:
///
///   OBSCORR_SIMD=scalar   keep the byte-wise cipher (any other value: auto)
///   set_aes(...)          in-process override (tests)
///
/// `--timing` prints the cipher that ran (`aes: aes-ni` or
/// `aes: byte-wise`), and `telescope.anonymize_ns` times it.

#include <optional>
#include <string_view>

namespace obscorr::simd {

/// True when cpuid reports the `aes` bit (probed once). Always false on
/// non-x86 builds.
bool aes_detected();

/// True when `value`, an OBSCORR_SIMD setting, keeps the byte-wise
/// cipher: exactly "scalar". Any other value leaves the choice on auto.
bool forces_byte_wise(std::string_view value);

/// True when AES-128 runs on AES-NI: the `set_aes` override when one is
/// set, else cpuid's `aes` bit unless OBSCORR_SIMD=scalar. Never true
/// where cpuid does not report the bit.
bool use_aes();

/// Override the choice for the rest of the process: false pins the
/// byte-wise cipher, true runs AES-NI wherever cpuid reports it (even
/// under OBSCORR_SIMD=scalar), std::nullopt restores the default.
void set_aes(std::optional<bool> aes_ni);

}  // namespace obscorr::simd
