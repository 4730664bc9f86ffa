#include "common/env.hpp"

#include <charconv>
#include <cstdlib>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace obscorr {

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  std::int64_t value = 0;
  const char* end = raw;
  while (*end) ++end;
  auto [p, ec] = std::from_chars(raw, end, value);
  if (ec != std::errc{} || p != end) return fallback;
  return value;
}

namespace {

/// OBSCORR_THREADS as a count in [0, kMaxThreads]; 0 when unset.
std::int64_t env_thread_count(std::int64_t fallback) {
  const std::int64_t threads = env_int("OBSCORR_THREADS", fallback);
  OBSCORR_REQUIRE(threads >= 0 && threads <= static_cast<std::int64_t>(kMaxThreads),
                  "OBSCORR_THREADS is out of range");
  return threads;
}

}  // namespace

int resolve_thread_count(int requested) {
  OBSCORR_REQUIRE(requested >= 0 && requested <= static_cast<int>(kMaxThreads),
                  "option --threads is out of range");
  if (requested > 0) return requested;
  const std::int64_t env = env_thread_count(0);
  return env > 0 ? static_cast<int>(env) : static_cast<int>(ThreadPool::default_thread_count());
}

BenchEnv BenchEnv::from_environment() {
  BenchEnv env;
  const std::int64_t log2_nv = env_int("OBSCORR_LOG2_NV", env.log2_nv);
  OBSCORR_REQUIRE(log2_nv >= 10 && log2_nv <= 34, "OBSCORR_LOG2_NV must be in [10,34]");
  env.log2_nv = static_cast<int>(log2_nv);
  env.seed = static_cast<std::uint64_t>(env_int("OBSCORR_SEED", static_cast<std::int64_t>(env.seed)));
  env.threads = static_cast<int>(env_thread_count(env.threads));
  return env;
}

}  // namespace obscorr
