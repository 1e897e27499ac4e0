// A fixed-size worker thread pool with a shared task queue.
//
// Used by the distributed PDCS extraction (Section 5, Algorithm 5) to run
// per-device extraction tasks concurrently, by the greedy selection for its
// initial gains, and by the benchmark harness to parallelize repetitions.
// Degrades gracefully to sequential execution when constructed with a
// single worker.
//
// Nesting: `parallel_for` may be called from inside a pool task. The
// calling thread executes loop iterations itself and, while stragglers
// finish on other workers, helps drain the shared queue instead of
// sleeping — so a single-worker (or saturated) pool still makes progress
// and can never deadlock on its own loops.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hipo::parallel {

class ThreadPool {
 public:
  /// `workers` == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return threads_.size(); }

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> fut = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, n), blocking until all complete. The first
  /// task exception is rethrown after every iteration has run. Safe to call
  /// from inside a pool task (the caller executes iterations and helps with
  /// queued work rather than blocking).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct ForLoop;  // shared state of one parallel_for invocation

  void worker_loop();
  /// Pop and run one queued task; false if the queue was empty.
  bool try_run_one();
  static void drain(ForLoop& loop);

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Pool-optional element-wise loop: `parallel_for` when a multi-worker pool
/// is given, a plain sequential loop otherwise. Determinism only requires
/// that iterations write disjoint state.
inline void chunked_for(ThreadPool* pool, std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->num_workers() > 1 && n > 1) {
    pool->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace hipo::parallel
