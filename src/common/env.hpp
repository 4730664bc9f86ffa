#pragma once
/// \file env.hpp
/// Environment-variable knobs for the bench harnesses. The paper ran at
/// N_V = 2^30 packets per snapshot on supercomputers; these knobs let the
/// same binaries scale from CI-size to paper-size without recompiling:
///
///   OBSCORR_LOG2_NV   log2 of the packets-per-snapshot window (default 22)
///   OBSCORR_SEED      master simulation seed (default 42)
///   OBSCORR_THREADS   worker threads (default: hardware concurrency)

#include <cstdint>
#include <string>

namespace obscorr {

/// Read an integer environment variable; `fallback` when unset or invalid.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Worker-thread count for a tool invocation: an explicit `requested > 0`
/// (the --threads flag) wins, otherwise OBSCORR_THREADS, otherwise the
/// hardware default clamped to kMaxThreads (common/thread_pool.hpp). The
/// result is always in [1, kMaxThreads]. Throws std::invalid_argument
/// ("... is out of range") when --threads or OBSCORR_THREADS is negative
/// or exceeds kMaxThreads; 0 means "not given".
int resolve_thread_count(int requested = 0);

/// Bench-harness configuration resolved from the environment.
struct BenchEnv {
  int log2_nv = 22;          ///< log2(N_V); the paper used 30.
  std::uint64_t seed = 42;   ///< master seed.
  int threads = 0;           ///< 0 = hardware concurrency.

  /// Packets per snapshot window.
  std::uint64_t nv() const { return 1ULL << log2_nv; }

  static BenchEnv from_environment();
};

}  // namespace obscorr
