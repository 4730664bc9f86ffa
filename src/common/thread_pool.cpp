#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "obs/telemetry.hpp"

namespace obscorr {

namespace {

/// Run one task under telemetry: count it and accumulate its wall time
/// as pool busy time. The disabled path is a single branch on the
/// cached level flag; no clock reads, no atomics.
void run_task_instrumented(std::function<void()>& task) {
  if (!obs::counters_enabled()) {
    task();
    return;
  }
  static obs::Counter& tasks_executed = obs::counter("threadpool.tasks_executed");
  static obs::Counter& busy_ns = obs::counter("threadpool.busy_ns");
  const std::uint64_t start = obs::now_ns();
  task();
  tasks_executed.add(1);
  busy_ns.add(obs::now_ns() - start);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  OBSCORR_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  OBSCORR_REQUIRE(threads <= kMaxThreads, "thread pool needs at most 1024 workers");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    tasks_.push(std::move(task));
    if (obs::counters_enabled()) {
      static obs::Gauge& high_water = obs::gauge("threadpool.queue_high_water");
      high_water.record_max(tasks_.size());
    }
  }
  task_available_.notify_one();
}

std::size_t ThreadPool::default_thread_count() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task_instrumented(task);
  }
}

namespace detail {

namespace {

/// One parallel_for call, shared with its queued tasks. Chunks are
/// claimed from one cursor by the caller and by the workers that pop
/// those tasks; a task popped after every chunk was claimed touches
/// nothing else, so it may outlive the call.
struct ChunkedCall {
  ChunkedCall(std::size_t first, std::size_t n, std::size_t chunk_count, ParallelBody f)
      : begin(first), base(n / chunk_count), extra(n % chunk_count), chunks(chunk_count),
        body(f) {}

  /// Claim and run chunks until none is left. A chunk's exception stays
  /// here, never let out of a pool task; the lowest chunk's is kept.
  void run_unclaimed() {
    for (std::size_t c = next++; c < chunks; c = next++) {
      // Static split: chunk c's bounds depend only on (n, chunks).
      const std::size_t first = begin + c * base + std::min(c, extra);
      const std::size_t last = first + base + (c < extra ? 1 : 0);
      std::exception_ptr error;
      try {
        body(first, last);
      } catch (...) {
        error = std::current_exception();
      }
      std::scoped_lock lock(mutex);
      if (error && c < error_chunk) {
        first_error = error;
        error_chunk = c;
      }
      if (++finished == chunks) all_finished.notify_all();
    }
  }

  const std::size_t begin, base, extra, chunks;
  const ParallelBody body;  ///< only run while the caller waits
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable all_finished;
  std::size_t finished = 0;
  std::exception_ptr first_error;
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
};

}  // namespace

void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                          ParallelBody body) {
  const std::size_t chunks = std::min(pool.thread_count(), end - begin);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  const auto call = std::make_shared<ChunkedCall>(begin, end - begin, chunks, body);
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    pool.submit([call] { call->run_unclaimed(); });
  }
  // The caller claims chunks alongside the workers and sleeps only on
  // chunks already running on other threads, so progress never depends
  // on a queue position, at any thread count and nesting depth. It never
  // runs another caller's task: a pool task that waits here (a daemon
  // request) never finds a second request, with its locks and its
  // render, running inside it.
  call->run_unclaimed();
  std::unique_lock lock(call->mutex);
  call->all_finished.wait(lock, [&] { return call->finished == chunks; });
  if (call->first_error) std::rethrow_exception(call->first_error);
}

}  // namespace detail

}  // namespace obscorr
