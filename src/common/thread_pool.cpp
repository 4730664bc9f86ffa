#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/telemetry.hpp"

namespace obscorr {

namespace {

/// Run one task under telemetry: count it and accumulate its wall time
/// as pool busy time. The disabled path is a single branch on the
/// cached level flag; no clock reads, no atomics.
void run_task_instrumented(std::function<void()>& task, bool is_help_drain) {
  if (!obs::counters_enabled()) {
    task();
    return;
  }
  static obs::Counter& tasks_executed = obs::counter("threadpool.tasks_executed");
  static obs::Counter& busy_ns = obs::counter("threadpool.busy_ns");
  static obs::Counter& help_drains = obs::counter("threadpool.help_drains");
  const std::uint64_t start = obs::now_ns();
  task();
  tasks_executed.add(1);
  busy_ns.add(obs::now_ns() - start);
  if (is_help_drain) help_drains.add(1);
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
    ++in_flight_;
    if (obs::counters_enabled()) {
      static obs::Gauge& high_water = obs::gauge("threadpool.queue_high_water");
      high_water.record_max(tasks_.size());
    }
  }
  task_available_.notify_one();
  // Wake helpers parked in wait_idle: new work is something they can run.
  all_done_.notify_all();
}

bool ThreadPool::run_one_task() {
  std::function<void()> task;
  {
    std::scoped_lock lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  run_task_instrumented(task, /*is_help_drain=*/true);
  {
    std::scoped_lock lock(mutex_);
    if (--in_flight_ == 0) all_done_.notify_all();
  }
  return true;
}

void ThreadPool::wait_idle() {
  for (;;) {
    if (run_one_task()) continue;
    std::unique_lock lock(mutex_);
    if (in_flight_ == 0) return;
    // Queue empty but tasks still running elsewhere: sleep until they
    // finish or submit new work we can help with.
    all_done_.wait(lock, [this] { return in_flight_ == 0 || !tasks_.empty(); });
    if (in_flight_ == 0) return;
  }
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
    run_task_instrumented(task, /*is_help_drain=*/false);
    {
      std::scoped_lock lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace detail {

void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                          ParallelBody body) {
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(pool.thread_count(), n);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  // Static split: chunk boundaries depend only on (n, chunks).
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  std::size_t start = begin;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    ranges.emplace_back(start, start + len);
    start += len;
  }
  OBSCORR_INVARIANT(start == end);

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = ranges.size() - 1;
  for (std::size_t c = 0; c + 1 < ranges.size(); ++c) {
    pool.submit([&, c] {
      body(ranges[c].first, ranges[c].second);
      std::scoped_lock lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  body(ranges.back().first, ranges.back().second);
  // Help drain the queue instead of sleeping: when this caller is itself
  // a pool worker, its remaining chunks may sit queued behind it, and
  // with every worker doing the same a sleeping wait would deadlock.
  // Sleeping is safe only once the queue is empty — then every
  // outstanding chunk is already executing on some other thread.
  for (;;) {
    {
      std::unique_lock lock(done_mutex);
      if (remaining == 0) return;
    }
    if (!pool.run_one_task()) {
      std::unique_lock lock(done_mutex);
      done_cv.wait(lock, [&] { return remaining == 0; });
      return;
    }
  }
}

}  // namespace detail

}  // namespace obscorr
