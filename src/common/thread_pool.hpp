#pragma once
/// \file thread_pool.hpp
/// A small work-stealing-free thread pool with a blocking `parallel_for`.
///
/// The GraphBLAS-style kernels (tuple sort, block merge, reductions) are
/// written against this pool rather than OpenMP so the parallelism is
/// explicit, testable at any thread count, and deterministic: ranges are
/// split statically, so results never depend on scheduling.
///
/// The pool tolerates nesting: a task (or `parallel_for` body) running on
/// a worker may itself call `parallel_for` on the same pool. A waiting
/// `parallel_for` caller claims and runs its own chunks that no worker
/// has started, and sleeps only on chunks already running on other
/// threads, so progress is guaranteed at any thread count, including
/// one. It never runs another caller's task, so a pool task that calls
/// `parallel_for` (a daemon request) never finds an unrelated task, with
/// its locks, running inside it. Destroying the pool runs every queued
/// task before the workers exit, so ending a pool's scope waits for all
/// of its work.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <queue>
#include <span>
#include <thread>
#include <vector>

namespace obscorr {

/// The most threads one process asks the host for: a pool's workers, or
/// obscorr-bots' clients (one thread each). A larger request is a usage
/// error (a typo such as `--threads 100000`), not a reason to start
/// that many threads.
inline constexpr std::size_t kMaxThreads = 1024;

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawn `threads` workers, 1 to kMaxThreads; throws
  /// std::invalid_argument otherwise, before starting any. The default
  /// uses hardware concurrency.
  explicit ThreadPool(std::size_t threads = default_thread_count());
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task; tasks must not throw (violations terminate).
  void submit(std::function<void()> task);

  /// hardware_concurrency, clamped to [1, kMaxThreads].
  static std::size_t default_thread_count();

  /// Process-wide shared pool, created on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool stop_ = false;
};

namespace detail {

/// Non-owning type-erased view of a `parallel_for` body. Keeps the
/// chunked implementation out of line without a `std::function`
/// allocation per call; only valid for the duration of the call.
class ParallelBody {
 public:
  template <typename F>
  explicit ParallelBody(const F& f)
      : object_(&f), call_([](const void* o, std::size_t b, std::size_t e) {
          (*static_cast<const F*>(o))(b, e);
        }) {}

  void operator()(std::size_t b, std::size_t e) const { call_(object_, b, e); }

 private:
  const void* object_;
  void (*call_)(const void*, std::size_t, std::size_t);
};

void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end, ParallelBody body);

}  // namespace detail

/// Ranges shorter than this run inline on the caller: a chunk task costs
/// a queue round-trip and a `std::function` allocation, which dwarfs the
/// body on tiny ranges.
inline constexpr std::size_t kParallelForInlineCutoff = 2;

/// Statically partition [begin, end) into ~`pool.thread_count()` chunks and
/// run `body(chunk_begin, chunk_end)` on the pool; blocks until complete.
/// Partitioning depends only on (range, thread count), never on timing, so
/// any reduction the caller does per-chunk is reproducible. Tiny ranges
/// and 1-thread pools run the body inline as the single chunk
/// [begin, end); nested calls from pool tasks are safe (see class docs).
/// A body may throw: every chunk still runs to its end, and then the
/// caller receives the exception of the lowest-numbered chunk that threw
/// — the one a serial loop over the range would have raised first.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, const Body& body) {
  if (begin >= end) return;
  if (end - begin < kParallelForInlineCutoff || pool.thread_count() == 1) {
    body(begin, end);
    return;
  }
  detail::parallel_for_chunked(pool, begin, end, detail::ParallelBody(body));
}

/// Convenience overload on the global pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
  parallel_for(ThreadPool::global(), begin, end, body);
}

/// Run `task(i)` for every i in [0, costs.size()) on `pool`, the caller
/// and the workers claiming indices one at a time from one cursor: for
/// tasks whose costs differ too much for a static split. Indices are
/// claimed in descending cost, ties in index order, so the largest task
/// starts first instead of ending the loop alone. Every task runs to its
/// end; then the exception of the lowest index that threw is rethrown —
/// the one a serial loop over the indices would have raised first,
/// whatever order they were claimed in. Safe inside a pool task, as
/// `parallel_for` is.
template <typename Task>
void parallel_claim(ThreadPool& pool, std::span<const std::uint64_t> costs, const Task& task) {
  const std::size_t count = costs.size();
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  parallel_for(pool, 0, std::min(pool.thread_count(), count), [&](std::size_t, std::size_t) {
    for (std::size_t k = next++; k < count; k = next++) {
      try {
        task(order[k]);
      } catch (...) {
        errors[order[k]] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// `parallel_claim` over [0, count) with every index at the same cost:
/// indices are claimed in index order.
template <typename Task>
void parallel_claim(ThreadPool& pool, std::size_t count, const Task& task) {
  parallel_claim(pool, std::vector<std::uint64_t>(count), task);
}

}  // namespace obscorr
