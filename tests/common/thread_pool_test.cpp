#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace obscorr {
namespace {

TEST(ThreadPoolTest, RejectsZeroWorkers) { EXPECT_THROW(ThreadPool(0), std::invalid_argument); }

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelClaimRunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (const std::size_t count : {0u, 1u, 3u, 100u}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_claim(pool, count, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << threads << " threads, index " << i << " of " << count;
      }
      std::vector<std::uint64_t> costs(count);
      for (std::size_t i = 0; i < count; ++i) costs[i] = (i * 7919) % 13;
      std::vector<std::atomic<int>> cost_hits(count);
      parallel_claim(pool, costs, [&](std::size_t i) { cost_hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(cost_hits[i].load(), 1) << threads << " threads, costed index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelClaimRethrowsTheLowestIndexAfterEveryIndexRan) {
  // Indices 3 and 7 of 20 throw on four workers, index 7 first: the
  // caller must still receive index 3's exception, and only once every
  // index has run to its end.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(20);
  std::atomic<bool> seven_threw{false};
  try {
    parallel_claim(pool, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 3) {
        for (int spin = 0; spin < 5000 && !seven_threw.load(); ++spin) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("index 3");
      }
      if (i == 7) {
        seven_threw.store(true);
        throw std::logic_error("index 7");
      }
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  EXPECT_TRUE(seven_threw.load());
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelClaimIsSafeInsideAPoolTask) {
  std::atomic<long long> total{0};
  {
    ThreadPool pool(2);
    for (int t = 0; t < 16; ++t) {
      pool.submit([&pool, &total] {
        const std::vector<std::uint64_t> costs = {4, 1, 9, 9, 0, 2, 7, 3};
        parallel_claim(pool, costs, [&](std::size_t i) {
          total.fetch_add(static_cast<long long>(costs[i]));
        });
        parallel_claim(pool, std::size_t{10}, [&](std::size_t) { total.fetch_add(1); });
      });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(total.load(), 16 * (35 + 10));
}

TEST(ThreadPoolTest, ParallelClaimTakesTheLargestCostFirstTiesByIndex) {
  ThreadPool pool(1);
  const std::vector<std::uint64_t> costs = {5, 9, 1, 9, 0, 5, 7};
  std::vector<std::size_t> order;
  parallel_claim(pool, costs, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 6, 0, 5, 2, 4}));
  // The count form is the same loop with every cost equal: index order.
  order.clear();
  parallel_claim(pool, std::size_t{5}, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelClaimRethrowsByIndexNotByClaimPosition) {
  // Index 2 is claimed first and index 1 last; both throw. A serial loop
  // over the indices raises index 1's exception first, so that is the
  // one the caller receives, at every pool size.
  const std::vector<std::uint64_t> costs = {5, 1, 9};
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(costs.size());
    try {
      parallel_claim(pool, costs, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i != 0) throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "no exception reached the caller at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 1") << threads << " threads";
    }
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

class ParallelForTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, SumReductionMatchesSerial) {
  ThreadPool pool(GetParam());
  std::vector<int> data(12345);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long long> total{0};
  parallel_for(pool, 0, data.size(), [&](std::size_t b, std::size_t e) {
    long long local = 0;
    for (std::size_t i = b; i < e; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 12345LL * 12344 / 2);
}

TEST_P(ParallelForTest, EmptyRangeDoesNothing) {
  ThreadPool pool(GetParam());
  bool called = false;
  parallel_for(pool, 5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(ParallelForTest, OffsetRangeRespected) {
  ThreadPool pool(GetParam());
  std::atomic<std::size_t> min_seen{~std::size_t{0}};
  std::atomic<std::size_t> max_seen{0};
  parallel_for(pool, 100, 200, [&](std::size_t b, std::size_t e) {
    std::size_t expected = min_seen.load();
    while (b < expected && !min_seen.compare_exchange_weak(expected, b)) {
    }
    expected = max_seen.load();
    while (e > expected && !max_seen.compare_exchange_weak(expected, e)) {
    }
  });
  EXPECT_EQ(min_seen.load(), 100u);
  EXPECT_EQ(max_seen.load(), 200u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelForTest, ::testing::Values(1, 2, 3, 8));

TEST(ParallelForTest, SingleElementRange) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(pool, 7, 8, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 7u);
    EXPECT_EQ(e, 8u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, MoreThreadsThanElements) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, 0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for(pool, 0, std::size_t{64}, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      parallel_for(pool, 0, std::size_t{64}, [&, o](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i) hits[o * 64 + i].fetch_add(1);
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, ParallelForInsideSubmittedTasksDoesNotDeadlock) {
  std::atomic<long long> total{0};
  {
    ThreadPool pool(GetParam());
    for (int t = 0; t < 16; ++t) {
      pool.submit([&pool, &total] {
        parallel_for(pool, 0, std::size_t{100}, [&](std::size_t b, std::size_t e) {
          total.fetch_add(static_cast<long long>(e - b));
        });
      });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(total.load(), 16 * 100);
}

TEST(ParallelForTest, TinyRangeRunsInlineOnCaller) {
  ThreadPool pool(8);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(pool, 3, 4, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 3u);
    EXPECT_EQ(e, 4u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, OneThreadPoolRunsInlineAsSingleChunk) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(pool, 0, std::size_t{1000}, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 1000}));
}

TEST(ParallelForTest, LowestChunkExceptionReachesTheCallerAfterEveryChunk) {
  // Chunks 1 and 3 of [0, 400) on four workers throw, chunk 3 first:
  // the caller must still receive chunk 1's exception, the one a serial
  // loop raises, and only once every chunk has run to its end.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(400);
  std::atomic<bool> chunk3_threw{false};
  const auto wait_for_chunk3 = [&] {
    for (int spin = 0; spin < 5000 && !chunk3_threw.load(); ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  try {
    parallel_for(pool, 0, hits.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      if (b == 100) {
        wait_for_chunk3();
        throw std::runtime_error("chunk 1");
      }
      if (b == 300) {
        chunk3_threw.store(true);
        throw std::logic_error("chunk 3");
      }
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
  EXPECT_TRUE(chunk3_threw.load());
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;

  // The pool is whole afterwards, and a one-thread pool throws inline.
  std::atomic<int> after{0};
  parallel_for(pool, 0, std::size_t{64}, [&](std::size_t b, std::size_t e) {
    after.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(after.load(), 64);
  ThreadPool serial(1);
  EXPECT_THROW(parallel_for(serial, 0, std::size_t{10},
                            [](std::size_t, std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
}

TEST(ParallelForTest, WaitingCallerRunsOnlyItsOwnChunks) {
  // Worker B is held busy while an unrelated task U waits at the front
  // of the queue, and a task on worker A calls parallel_for, whose chunk
  // queues behind U. A must run that chunk itself and return without
  // running U: a daemon request that fans out on the pool must never find
  // another request, with its locks and its render, running inside it.
  std::mutex m;
  std::condition_variable cv;
  bool hold_released = false;
  bool holding = false;
  std::atomic<bool> unrelated_ran{false};
  std::atomic<bool> unrelated_ran_inside{true};
  std::atomic<int> covered{0};
  bool caller_done = false;
  {
    ThreadPool pool(2);
    pool.submit([&] {
      std::unique_lock lock(m);
      holding = true;
      cv.notify_all();
      cv.wait(lock, [&] { return hold_released; });
    });
    {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return holding; });
    }
    pool.submit([&] {
      pool.submit([&] { unrelated_ran.store(true); });
      parallel_for(pool, 0, std::size_t{100}, [&](std::size_t b, std::size_t e) {
        covered.fetch_add(static_cast<int>(e - b));
      });
      unrelated_ran_inside.store(unrelated_ran.load());
      std::scoped_lock lock(m);
      caller_done = true;
      cv.notify_all();
    });
    std::unique_lock lock(m);
    const bool done = cv.wait_for(lock, std::chrono::seconds(30), [&] { return caller_done; });
    hold_released = true;
    cv.notify_all();
    ASSERT_TRUE(done);
  }  // the destructor runs U before it joins
  EXPECT_EQ(covered.load(), 100);
  EXPECT_FALSE(unrelated_ran_inside.load());
  EXPECT_TRUE(unrelated_ran.load());
}

TEST(ParallelForTest, ChunkBoundariesDependOnlyOnRangeAndThreadCount) {
  // Run the same range twice on the same pool size: the multiset of
  // chunks must match exactly — static partitioning, no timing feedback.
  const auto chunks_of = [](std::size_t threads, std::size_t n) {
    ThreadPool pool(threads);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallel_for(pool, 0, n, [&](std::size_t b, std::size_t e) {
      std::scoped_lock lock(m);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  for (const std::size_t threads : {2u, 3u, 8u}) {
    const auto a = chunks_of(threads, 1001);
    const auto b = chunks_of(threads, 1001);
    EXPECT_EQ(a, b) << "threads=" << threads;
    // Chunks tile [0, 1001) without gap or overlap.
    std::size_t cursor = 0;
    for (const auto& [lo, hi] : a) {
      EXPECT_EQ(lo, cursor);
      EXPECT_LT(lo, hi);
      cursor = hi;
    }
    EXPECT_EQ(cursor, 1001u);
    EXPECT_EQ(a.size(), std::min<std::size_t>(threads, 1001));
  }
}

}  // namespace
}  // namespace obscorr
