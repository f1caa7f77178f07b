// Fixed-size thread pool with a work queue.
//
// On the real Xeon Phi, PhiOpenSSL pinned one worker per hardware thread
// (up to 244). Here the pool is the functional equivalent: it provides the
// same submit/drain semantics on however many host threads are requested;
// the phisim module supplies the *performance* model for 244-thread runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace phissl::util {

/// Shutdown semantics: shutdown() (or the destructor) first marks the
/// pool as draining, then lets the workers finish every task that was
/// already queued, then joins them — submitted work is never silently
/// dropped. Once draining has begun, submit() REJECTS new work by
/// throwing std::runtime_error; without the rejection a task enqueued
/// after the workers exited would never run and its future would never
/// become ready. shutdown() is idempotent and must not be called from a
/// worker thread (it joins them).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Calls shutdown(): drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn`; returns a future for its completion. Throws
  /// std::runtime_error if the pool is draining or already shut down
  /// (see the class comment) — the task is not enqueued in that case.
  std::future<void> submit(std::function<void()> fn);

  /// Stops accepting new work, runs everything already queued, and joins
  /// the workers. Idempotent; safe to call concurrently with submit()
  /// (losers of the race get the submit() rejection above).
  void shutdown();

 private:
  void worker_loop();

  /// A queued task plus its enqueue timestamp, so the dequeuing worker
  /// can record the queue-wait histogram (phissl_pool_task_wait_us).
  struct Queued {
    std::packaged_task<void()> task;
    std::uint64_t enqueue_ns;
  };

  std::vector<std::thread> workers_;
  std::deque<Queued> queue_;
  std::mutex mu_;
  std::mutex join_mu_;  // serializes concurrent shutdown() callers
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace phissl::util
