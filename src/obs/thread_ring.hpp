// Per-thread record rings: the lock-free capture buffer under both the
// span tracer (obs/trace.hpp) and the workload recorder (obs/workload.hpp).
//
// Each thread that records gets its own fixed-capacity ring, registered
// once under a mutex (the cold path) and kept alive by the ring set after
// the thread exits, so a late drain still sees its records. A record is a
// store into the calling thread's ring plus a release bump of its monotone
// head — no lock, no allocation. When a ring wraps, the OLDEST record is
// overwritten and the caller's drop counter grows by one; a ring's live
// records are the last min(head, Capacity) it wrote.
//
// The calling thread finds its ring through a thread_local, and a
// thread_local belongs to the instantiation, not to the object: there is
// one ring set per (Record, Capacity) type, and constructing a second
// throws std::logic_error.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace phissl::obs {

template <typename Record, std::size_t Capacity>
class ThreadRing {
 public:
  /// `dropped` counts records overwritten by wraparound, in every ring.
  explicit ThreadRing(Counter& dropped) : dropped_(dropped) {
    static std::atomic<bool> constructed{false};
    if (constructed.exchange(true)) {
      throw std::logic_error("obs::ThreadRing: one ring set per record type");
    }
  }

  ThreadRing(const ThreadRing&) = delete;
  ThreadRing& operator=(const ThreadRing&) = delete;

  /// Appends `r` to the calling thread's ring. Lock-free after the
  /// thread's first record.
  void push(const Record& r) noexcept {
    Ring& ring = local();
    const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
    if (h >= Capacity) dropped_.inc();  // overwriting the oldest
    ring.slots[h % Capacity] = r;
    ring.head.store(h + 1, std::memory_order_release);
  }

  /// Calls visit(ring_index, record) for each ring's live records, oldest
  /// first, ring by ring in registration order. Ring indices are dense
  /// from 0. Recording may continue concurrently; records overwritten
  /// meanwhile can tear, so quiesce first when exactness matters.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      for (std::uint64_t i = head - live(head); i < head; ++i) {
        visit(ring->index, ring->slots[i % Capacity]);
      }
    }
  }

  /// Records overwritten by wraparound since the last clear().
  [[nodiscard]] std::uint64_t dropped_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t dropped = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      dropped += head - live(head);
    }
    return dropped;
  }

  /// Records pushed since the last clear(), including dropped ones.
  [[nodiscard]] std::uint64_t recorded_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& ring : rings_) {
      total += ring->head.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Rewinds every ring. Not safe against a concurrent push(). The drop
  /// counter is monotone and keeps its value.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      ring->head.store(0, std::memory_order_release);
    }
  }

 private:
  struct Ring {
    explicit Ring(std::uint32_t i) : index(i) {}
    const std::uint32_t index;
    std::vector<Record> slots = std::vector<Record>(Capacity);
    // Monotone logical write position; slot = head % Capacity. The owning
    // thread is the only writer; readers acquire-load it.
    std::atomic<std::uint64_t> head{0};
  };

  static std::uint64_t live(std::uint64_t head) {
    return std::min<std::uint64_t>(head, Capacity);
  }

  Ring& local() {
    thread_local std::shared_ptr<Ring> mine;
    if (!mine) {
      std::lock_guard<std::mutex> lock(mu_);
      mine = std::make_shared<Ring>(static_cast<std::uint32_t>(rings_.size()));
      rings_.push_back(mine);  // keeps the ring alive past thread exit
    }
    return *mine;
  }

  Counter& dropped_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

}  // namespace phissl::obs
