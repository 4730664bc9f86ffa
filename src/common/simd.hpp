#pragma once
/// \file simd.hpp
/// Runtime SIMD dispatch for the pipeline's hot kernels.
///
/// Three hot loops — batched packet ingest, the 6x11-bit LSD radix
/// sort, and the Table II span reductions — each ship a scalar
/// implementation and a vectorized variant in a sibling `*_simd.cpp`
/// translation unit (the archive codec's decode kernels dispatch the
/// same way). CryptoPAN's AES-128 does too: the byte-wise FIPS-197
/// cipher is the reference, and an AES-NI kernel
/// (`crypt/aes128_simd.cpp`) runs whenever the active tier is sse42 or
/// avx2 and cpuid reports the `aes` bit (`use_aes()`). Which variant
/// runs is a process-wide *tier* resolved at startup from cpuid and
/// clamped by two overrides:
///
///   OBSCORR_SIMD=scalar|sse42|avx2   environment cap (invalid = auto)
///   set_tier(...)                    in-process override (tests, benches)
///
/// Every vectorized variant is bit-identical to its scalar fallback:
/// same packet streams, same sort order, same sums, same ciphertexts.
/// Floating-point reductions keep that promise because pipeline values
/// are exact integer packet counts (every partial sum is an integer
/// below 2^53, so lane-split accumulation commits the same bits as a
/// left fold); the kernels document that contract where it applies.
/// The golden study archive and the determinism suite therefore hold
/// at any tier, and the differential suites in tests/ assert byte
/// equality between forced-scalar and vectorized runs of every kernel.
///
/// The selected tier is observable: `--timing` prints it and the
/// cipher that ran, the metrics export carries a `simd.tier` gauge (0
/// scalar, 1 sse42, 2 avx2), and per-kernel `simd.dispatch_*` counters
/// record how many times each vectorized kernel actually ran (the
/// cipher has no such counter; `telescope.anonymize_ns` times it).

#include <optional>
#include <string_view>

namespace obscorr::simd {

/// Instruction-set tiers, ordered: a kernel compiled for tier T may run
/// whenever the active tier is >= T. kSse42 exists for hosts with SSE4.2
/// but no AVX2 (the CRC32C path keys off it); the dispatched kernels ship
/// scalar and AVX2 variants, so kSse42 runs their scalar fallback. The
/// AES-NI cipher is the exception: it runs at any tier above kScalar.
enum class Tier : int {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
};

/// Highest tier the CPU supports (cpuid, cached after the first call).
/// Always kScalar on non-x86 builds.
Tier detected_tier();

/// The tier kernels dispatch on: `detected_tier()` capped by the
/// OBSCORR_SIMD environment variable and any `set_tier` override.
/// Never exceeds `detected_tier()` — forcing avx2 on a host without it
/// clamps down, it does not crash.
Tier active_tier();

/// Override the active tier for the rest of the process (the
/// differential tests and per-tier benchmarks). The request is clamped
/// to `detected_tier()`. Passing std::nullopt restores auto (env cap,
/// then detection).
void set_tier(std::optional<Tier> tier);

/// Parse "scalar" / "sse42" / "avx2"; nullopt for anything else (an
/// OBSCORR_SIMD value that does not parse leaves the tier on auto).
std::optional<Tier> parse_tier(std::string_view name);

/// Canonical lower-case tier name ("scalar", "sse42", "avx2").
std::string_view tier_name(Tier tier);

/// True when the active tier runs the AVX2 kernel variants. This is the
/// hot-path dispatch predicate: one relaxed atomic load.
bool use_avx2();

/// True when AES-128 runs on AES-NI: the active tier is above scalar and
/// cpuid reports the `aes` bit. `OBSCORR_SIMD=scalar` and
/// `set_tier(Tier::kScalar)` keep the byte-wise reference cipher.
bool use_aes();

}  // namespace obscorr::simd
