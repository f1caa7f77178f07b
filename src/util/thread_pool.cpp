#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timing.hpp"

namespace phissl::util {

#if PHISSL_OBS_ENABLED
namespace {

// Process-wide pool metrics (all ThreadPool instances aggregate): depth of
// the submit queue, tasks executed, and how long each task sat queued
// before a worker picked it up.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Counter& tasks;
  obs::Histogram& task_wait_us;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{
      obs::Registry::global().gauge("phissl_pool_queue_depth",
                                    "Tasks waiting in ThreadPool queues"),
      obs::Registry::global().counter("phissl_pool_tasks_total",
                                      "Tasks executed by ThreadPool workers"),
      obs::Registry::global().histogram(
          "phissl_pool_task_wait_us",
          "Queue wait from submit() to worker pickup (microseconds)")};
  return m;
}

}  // namespace
#endif

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // join_mu_ serializes concurrent shutdown() callers: std::thread::join
  // races are UB, and joinable() alone is check-then-act.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit on a draining pool");
    }
    queue_.push_back(Queued{std::move(task), now_ns()});
  }
#if PHISSL_OBS_ENABLED
  pool_metrics().queue_depth.add(1);
#endif
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Queued item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
#if PHISSL_OBS_ENABLED
    pool_metrics().queue_depth.sub(1);
    pool_metrics().tasks.inc();
    pool_metrics().task_wait_us.record(
        static_cast<double>(now_ns() - item.enqueue_ns) * 1e-3);
#endif
    PHISSL_OBS_SPAN("pool.task");
    item.task();
  }
}

}  // namespace phissl::util
