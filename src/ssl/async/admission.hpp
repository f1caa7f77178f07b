// Admission control and load shedding for the event-driven terminator.
//
// The expensive step of a handshake is the batched private-key operation,
// and the batching scheduler (service/sign_service.hpp) deliberately
// queues work to fill 16-lane batches. Under overload that queue is the
// thing that grows: every admitted connection adds one private op, and
// once the arrival rate exceeds batch throughput the predicted wait — and
// with it handshake p99 — diverges. Shedding AFTER the private op would
// spend the scarce resource on a connection we then discard; this
// controller therefore gates admission BEFORE the op is submitted, at the
// moment the connection would create its pending crypto request.
//
// Two independent bounds, both off by default (0 = unlimited):
//
//   max_pending_ops    — hard cap on crypto ops in flight behind the
//                        batch service. Deterministic, the knob tests
//                        exercise; think "queue depth".
//   max_predicted_wait — linger-aware latency bound that protects a
//                        queue: reject an arrival behind pending ops when
//                        the EWMA-predicted wait for it exceeds the
//                        budget. predict() models the batch pipeline as
//                          ceil((pending+1)/16) * ewma_batch_us + linger
//                        i.e. how many 16-lane batches must drain before
//                        this op's batch completes, at the measured
//                        per-batch cost, plus the partial-batch linger
//                        the op may spend waiting for lanemates. The
//                        linger is the decrypter's, not a knob:
//                        ServerStack passes DriverConfig::batch_linger
//                        for the batched decrypter and zero for the
//                        inline one, which never lingers. An arrival
//                        with nothing pending (depth 0) passes this
//                        bound: there is no queue to protect, and its
//                        completion is the sample that brings the EWMA
//                        back down after a slow op. Shedding it would
//                        shut the gate for good.
//
// The EWMA learns per-batch cost from completed ops without touching the
// batch service: an op admitted at queue depth d that took t microseconds
// end-to-end crossed ceil((d+1)/16) batches, so one batch cost
// ~t/ceil((d+1)/16) — the same pipeline model predict() applies in the
// other direction. Smoothing (alpha 1/8) absorbs the noise of partial
// batches and linger jitter.
//
// Everything is lock-free atomics: try_admit() sits on the per-connection
// hot path of the reactor.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace phissl::ssl::async {

/// Admission knobs (see file comment). Defaults admit everything.
struct AdmissionConfig {
  /// Hard bound on crypto ops pending behind the batch service; 0 = off.
  std::size_t max_pending_ops = 0;
  /// Reject an arrival behind pending ops when predict() exceeds this;
  /// zero duration = off.
  std::chrono::microseconds max_predicted_wait{0};
};

/// Lock-free admission gate + shed accounting. One instance per reactor;
/// shared by every connection. All methods are thread-safe.
class AdmissionController {
 public:
  /// `linger` is the predictor's linger term: the longest a partial
  /// batch waits for lanemates before the decrypter runs it.
  explicit AdmissionController(AdmissionConfig cfg = {},
                               std::chrono::microseconds linger = {})
      : cfg_(cfg), linger_(linger) {}

  /// Called at the point a connection is about to submit a private op.
  /// Returns the queue depth observed at admission (feed it back to
  /// on_complete), or nullopt if the connection must be shed — in which
  /// case the shed counter has already been incremented and NO pending op
  /// slot is held.
  std::optional<std::size_t> try_admit() {
    // Optimistic reserve-then-check: pending_ is bumped first so two
    // racing admits can't both squeeze under the cap.
    const std::size_t depth = pending_.fetch_add(1, std::memory_order_acq_rel);
    bool reject = false;
    if (cfg_.max_pending_ops != 0 && depth >= cfg_.max_pending_ops) {
      reject = true;
    }
    if (!reject && depth > 0 && cfg_.max_predicted_wait.count() > 0 &&
        predict_for_depth(depth) > cfg_.max_predicted_wait) {
      reject = true;
    }
    if (reject) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      shed_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    return depth;
  }

  /// Called when an admitted op's result arrives. `depth_at_admit` is the
  /// value try_admit() returned; `op_latency_us` is submit-to-completion
  /// time. Releases the pending slot and feeds the EWMA predictor.
  void on_complete(std::size_t depth_at_admit, double op_latency_us) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    // One batch's worth of the measured latency: an op admitted at depth
    // d drains behind ceil((d+1)/16) batch dispatches, so divide the
    // end-to-end time by the batches it crossed. (An earlier version
    // multiplied by 16/(d+1) instead, which at low depth fed a 16x
    // inflated sample into the EWMA — light-load warmup then tripped
    // max_predicted_wait sheds at depths the config permits.)
    const double batches =
        static_cast<double>((depth_at_admit + 1 + 15) / 16);
    const double sample = op_latency_us / batches;
    double cur = ewma_batch_us_.load(std::memory_order_relaxed);
    double next;
    do {
      next = cur <= 0.0 ? sample : cur + (sample - cur) / 8.0;
    } while (!ewma_batch_us_.compare_exchange_weak(
        cur, next, std::memory_order_relaxed));
  }

  /// Predicted wait for one more op at the current queue depth.
  [[nodiscard]] std::chrono::microseconds predict() const {
    return predict_for_depth(pending_.load(std::memory_order_relaxed));
  }

  /// Crypto ops currently admitted and not yet completed.
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  /// Connections rejected by try_admit() so far.
  [[nodiscard]] std::uint64_t shed() const {
    return shed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const AdmissionConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] std::chrono::microseconds predict_for_depth(
      std::size_t depth) const {
    const double batch_us = ewma_batch_us_.load(std::memory_order_relaxed);
    const auto batches = static_cast<double>((depth + 1 + 15) / 16);
    const double wait =
        batches * batch_us + static_cast<double>(linger_.count());
    return std::chrono::microseconds(static_cast<std::int64_t>(wait));
  }

  AdmissionConfig cfg_;
  std::chrono::microseconds linger_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<double> ewma_batch_us_{0.0};
};

}  // namespace phissl::ssl::async
