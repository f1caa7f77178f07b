// Admission control and load shedding for the event-driven terminator.
//
// The expensive step of a handshake is the server's RSA private op, and
// the batching scheduler (service/sign_service.hpp) deliberately queues
// work to fill 16-lane batches. Under overload that queue is the thing
// that grows: every admitted connection adds one private op, and once
// the arrival rate exceeds the decrypter's throughput the wait — and
// with it handshake p99 — diverges. Shedding AFTER the private op would
// spend the scarce resource on a connection we then discard; this
// controller therefore gates admission BEFORE the op is created, at the
// moment the connection would make its pending crypto request.
//
// One bound: a cap on private ops admitted and not yet released
// (DriverConfig::max_pending_ops; 0 = off, and the ops are still
// counted). An arrival that finds the cap reached is shed. The shed
// count is the reactor's (phissl_reactor_shed_total, DriverReport::shed).
//
// Lock-free: try_admit() sits on the per-connection hot path of the
// reactor.
#pragma once

#include <atomic>
#include <cstddef>

namespace phissl::ssl::async {

/// Lock-free pending-op gate. One instance per reactor, shared by every
/// connection; all methods are thread-safe.
class AdmissionController {
 public:
  /// `max_pending_ops` caps the private ops admitted and not yet
  /// released; 0 admits everything.
  explicit AdmissionController(std::size_t max_pending_ops = 0)
      : max_pending_ops_(max_pending_ops) {}

  /// Called at the point a connection is about to create a private op.
  /// True holds one pending slot, which the owner must release() once the
  /// op completes or is discarded; false means shed, holding none.
  [[nodiscard]] bool try_admit() {
    // Reserve, then check: two racing admits can't both squeeze under
    // the cap.
    const std::size_t depth = pending_.fetch_add(1, std::memory_order_acq_rel);
    if (max_pending_ops_ != 0 && depth >= max_pending_ops_) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    return true;
  }

  /// Frees the slot try_admit() reserved for an op.
  void release() { pending_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Private ops admitted and not yet released.
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t max_pending_ops_;
  std::atomic<std::size_t> pending_{0};
};

}  // namespace phissl::ssl::async
