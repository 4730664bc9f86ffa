#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace obscorr {
namespace {

// setenv/unsetenv are process-global; these tests restore state and the
// suite runs single-threaded within one binary, so that is safe.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (old_.empty()) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, old_.c_str(), 1);
    }
  }

 private:
  const char* name_;
  std::string old_;
};

TEST(EnvIntTest, FallbackWhenUnset) {
  ::unsetenv("OBSCORR_TEST_UNSET");
  EXPECT_EQ(env_int("OBSCORR_TEST_UNSET", 17), 17);
}

TEST(EnvIntTest, ParsesInteger) {
  EnvGuard guard("OBSCORR_TEST_INT", "123");
  EXPECT_EQ(env_int("OBSCORR_TEST_INT", 0), 123);
}

TEST(EnvIntTest, ParsesNegative) {
  EnvGuard guard("OBSCORR_TEST_INT", "-5");
  EXPECT_EQ(env_int("OBSCORR_TEST_INT", 0), -5);
}

TEST(EnvIntTest, FallbackOnGarbage) {
  EnvGuard guard("OBSCORR_TEST_INT", "12abc");
  EXPECT_EQ(env_int("OBSCORR_TEST_INT", 9), 9);
  EnvGuard guard2("OBSCORR_TEST_INT", "");
  EXPECT_EQ(env_int("OBSCORR_TEST_INT", 9), 9);
}

TEST(BenchEnvTest, Defaults) {
  ::unsetenv("OBSCORR_LOG2_NV");
  ::unsetenv("OBSCORR_SEED");
  ::unsetenv("OBSCORR_THREADS");
  const BenchEnv env = BenchEnv::from_environment();
  EXPECT_EQ(env.log2_nv, 22);
  EXPECT_EQ(env.seed, 42u);
  EXPECT_EQ(env.threads, 0);
  EXPECT_EQ(env.nv(), 1ULL << 22);
}

TEST(BenchEnvTest, ReadsOverrides) {
  EnvGuard a("OBSCORR_LOG2_NV", "18");
  EnvGuard b("OBSCORR_SEED", "7");
  EnvGuard c("OBSCORR_THREADS", "3");
  const BenchEnv env = BenchEnv::from_environment();
  EXPECT_EQ(env.log2_nv, 18);
  EXPECT_EQ(env.seed, 7u);
  EXPECT_EQ(env.threads, 3);
  EXPECT_EQ(env.nv(), 1ULL << 18);
}

TEST(BenchEnvTest, RejectsOutOfRangeWindow) {
  EnvGuard guard("OBSCORR_LOG2_NV", "50");
  EXPECT_THROW(BenchEnv::from_environment(), std::invalid_argument);
  EnvGuard low("OBSCORR_LOG2_NV", "2");
  EXPECT_THROW(BenchEnv::from_environment(), std::invalid_argument);
  EnvGuard wrapped("OBSCORR_LOG2_NV", "4294967308");  // 12 once narrowed to int
  EXPECT_THROW(BenchEnv::from_environment(), std::invalid_argument);
}

TEST(ResolveThreadCountTest, ExplicitThenEnvironmentThenHardware) {
  EnvGuard guard("OBSCORR_THREADS", "3");
  EXPECT_EQ(resolve_thread_count(5), 5);
  EXPECT_EQ(resolve_thread_count(0), 3);
  EnvGuard unset("OBSCORR_THREADS", "");
  EXPECT_GE(resolve_thread_count(0), 1);
}

TEST(ResolveThreadCountTest, RejectsAnEnvironmentCountAnIntCannotHold) {
  // 2^32 + 2 narrows to 2 workers: only a range check rejects it.
  EnvGuard guard("OBSCORR_THREADS", "4294967298");
  try {
    (void)resolve_thread_count(0);
    ADD_FAILURE() << "OBSCORR_THREADS=4294967298 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "OBSCORR_THREADS is out of range");
  }
  EXPECT_EQ(resolve_thread_count(2), 2);  // an explicit count never reads it
}

TEST(ResolveThreadCountTest, RejectsCountsAboveTheThreadCeiling) {
  // No pool is constructed here: the check runs before any thread starts.
  EXPECT_EQ(resolve_thread_count(static_cast<int>(kMaxThreads)), 1024);
  try {
    (void)resolve_thread_count(1025);
    ADD_FAILURE() << "--threads 1025 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "option --threads is out of range");
  }
  {
    EnvGuard guard("OBSCORR_THREADS", "1024");
    EXPECT_EQ(resolve_thread_count(0), 1024);
  }
  EnvGuard guard("OBSCORR_THREADS", "1025");
  try {
    (void)resolve_thread_count(0);
    ADD_FAILURE() << "OBSCORR_THREADS=1025 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "OBSCORR_THREADS is out of range");
  }
  EXPECT_THROW(BenchEnv::from_environment(), std::invalid_argument);
  EXPECT_EQ(resolve_thread_count(2), 2);  // an explicit count never reads it
}

TEST(ResolveThreadCountTest, RejectsNegativeCounts) {
  // A negative count is a usage error, not "use the default".
  try {
    (void)resolve_thread_count(-3);
    ADD_FAILURE() << "--threads -3 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "option --threads is out of range");
  }
  EnvGuard guard("OBSCORR_THREADS", "-2");
  try {
    (void)resolve_thread_count(0);
    ADD_FAILURE() << "OBSCORR_THREADS=-2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "OBSCORR_THREADS is out of range");
  }
  EXPECT_THROW(BenchEnv::from_environment(), std::invalid_argument);
  EXPECT_EQ(resolve_thread_count(2), 2);  // an explicit count never reads it
  EnvGuard zero("OBSCORR_THREADS", "0");  // 0 still means "not given"
  EXPECT_EQ(static_cast<std::size_t>(resolve_thread_count(0)), ThreadPool::default_thread_count());
}

TEST(ResolveThreadCountTest, HardwareDefaultStaysUnderTheCeiling) {
  EnvGuard unset("OBSCORR_THREADS", "");
  const int threads = resolve_thread_count(0);
  EXPECT_GE(threads, 1);
  EXPECT_LE(threads, static_cast<int>(kMaxThreads));
  EXPECT_EQ(static_cast<std::size_t>(threads), ThreadPool::default_thread_count());
}

}  // namespace
}  // namespace obscorr
