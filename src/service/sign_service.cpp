#include "service/sign_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "rsa/pkcs1.hpp"
#include "util/sha256.hpp"

namespace phissl::service {

using bigint::BigInt;
using Clock = std::chrono::steady_clock;

namespace {

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

static_assert(kBatchLanes == rsa::BatchEngine::kBatch);

// Weight of the newest measurement in a route cost estimate: a few flushes
// follow a change of host speed.
constexpr double kCostWeight = 0.25;

void observe(std::atomic<double>& estimate, double us) {
  // Two dispatch workers may race here and drop one sample; the estimate
  // only needs to follow the host, not to count. A sample counts for at
  // most twice the estimate: one run stalled by preemption must not lift
  // op_us past batch_us, because then no flush would run single-stream
  // again to bring it back down.
  const double old = estimate.load(std::memory_order_relaxed);
  estimate.store(old + kCostWeight * (std::min(us, 2.0 * old) - old),
                 std::memory_order_relaxed);
}

// Prometheus label body identifying one service instance. Each SignService
// gets its own metric instances so tests running several services in one
// process never see each other's counts.
std::string next_svc_labels() {
  static std::atomic<std::uint64_t> next{0};
  return "svc=\"" + std::to_string(next.fetch_add(1)) + "\"";
}

}  // namespace

/// Registry-backed stats block. References are stable for the process
/// lifetime (Registry::global() never destroys metrics), so holding them
/// across the service's life is safe.
struct SignService::Metrics {
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& full_batches;
  obs::Counter& padded_lanes;
  obs::Counter& lanes_signed;
  obs::Counter& single_ops;
  obs::Counter& flush_full;
  obs::Counter& flush_linger;
  obs::Counter& flush_drain;
  obs::Histogram& queue_wait_us;
  obs::Histogram& worker_wait_us;
  obs::Histogram& service_us;
  obs::Histogram& single_op_us;

  explicit Metrics(const std::string& svc)
      : requests(obs::Registry::global().counter(
            "phissl_service_requests_total", "sign() calls accepted", svc)),
        batches(obs::Registry::global().counter(
            "phissl_service_batches_total", "16-lane dispatches issued", svc)),
        full_batches(obs::Registry::global().counter(
            "phissl_service_full_batches_total",
            "dispatches with no padded lane", svc)),
        padded_lanes(obs::Registry::global().counter(
            "phissl_service_padded_lanes_total",
            "dummy lanes across all dispatched batches", svc)),
        lanes_signed(obs::Registry::global().counter(
            "phissl_service_lanes_signed_total",
            "caller requests dispatched in batch lanes", svc)),
        single_ops(obs::Registry::global().counter(
            "phissl_service_single_ops_total",
            "caller requests run single-stream on a partial flush", svc)),
        flush_full(obs::Registry::global().counter(
            "phissl_service_flush_total", "flushes by reason",
            svc + ",reason=\"full\"")),
        flush_linger(obs::Registry::global().counter(
            "phissl_service_flush_total", "flushes by reason",
            svc + ",reason=\"linger\"")),
        flush_drain(obs::Registry::global().counter(
            "phissl_service_flush_total", "flushes by reason",
            svc + ",reason=\"drain\"")),
        queue_wait_us(obs::Registry::global().histogram(
            "phissl_service_queue_wait_us",
            "per-request wait from sign() to its flush forming "
            "(microseconds)",
            svc)),
        // Named for the thread pool the dispatch workers replaced;
        // bench/e2e/run.py reads it under this name.
        worker_wait_us(obs::Registry::global().histogram(
            "phissl_pool_task_wait_us",
            "per-flush wait from forming to a dispatch worker starting it "
            "(microseconds)",
            svc)),
        service_us(obs::Registry::global().histogram(
            "phissl_service_batch_service_us",
            "per-batch kernel + completion time (microseconds)", svc)),
        single_op_us(obs::Registry::global().histogram(
            "phissl_service_single_op_us",
            "per-request single-stream private op time (microseconds)",
            svc)) {}
};

void SignService::Pending::deliver(SignResult r) {
  if (done) {
    // Async form: callback instead of future. A throwing completion is a
    // caller bug; swallow it so the other requests still deliver.
    try {
      done(std::move(r));
    } catch (...) {
    }
  } else {
    promise.set_value(std::move(r));
  }
}

void SignService::Pending::fail(std::exception_ptr e) {
  if (done) {
    try {
      done(std::nullopt);
    } catch (...) {
    }
  } else {
    promise.set_exception(std::move(e));
  }
}

/// A flush a worker took: up to kBatch requests from the front of the
/// FIFO, stamped with the time it formed — when its last request arrived
/// (full), at the stop() call (drain), or when a worker took it (linger).
/// Queue wait ends and batch service time starts at that stamp, so a
/// flush queued behind a busy worker counts its wait there
/// (phissl_pool_task_wait_us), not as queue wait. Empty: nothing was due.
struct SignService::Flush {
  std::vector<Pending> work;
  FlushReason why = FlushReason::kFull;
  Clock::time_point formed;
};

SignService::SignService(rsa::PrivateKey key, SignServiceConfig config)
    : config_(config),
      engine_(key, config.backend),
      single_(std::move(key), rsa::EngineOptions{.kernel = config.backend}),
      k_(engine_.pub().byte_size()),
      // Padded lanes take the EMSA encoding of an all-zero digest. Any
      // EMSA block starts 0x00 0x01, so its value is < 2^(8k-8) <= n —
      // always a valid private_op input. One fixed value keeps the padded
      // lanes on the identical 16-lane kernel shape; their outputs are
      // simply discarded.
      dummy_(BigInt::from_bytes_be(
          rsa::emsa_pkcs1_v15_from_digest(util::Sha256::Digest{}, k_))),
      metrics_(std::make_unique<Metrics>(next_svc_labels())) {
  calibrate();
  config_.dispatch_threads = std::max<std::size_t>(config_.dispatch_threads, 1);
  workers_.reserve(config_.dispatch_threads);
  try {
    for (std::size_t i = 0; i < config_.dispatch_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();  // joins the workers already started
    throw;
  }
}

SignService::~SignService() { stop(); }

void SignService::calibrate() {
  BigInt one;
  std::array<BigInt, kBatch> xs;
  xs.fill(dummy_);
  std::array<BigInt, kBatch> out;
  const auto timed = [](auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    return to_us(Clock::now() - t0);
  };
  // The first run of each warms this thread's workspaces and tables; the
  // faster of the two seeds the estimate, so one stalled run cannot.
  const auto op = [&] { single_.private_op_into(dummy_, one); };
  const auto batch = [&] { engine_.private_op(xs, out); };
  op_us_.store(std::min(timed(op), timed(op)));
  batch_us_.store(std::min(timed(batch), timed(batch)));
}

SignService::Pending SignService::digest_request(
    std::span<const std::uint8_t> digest) const {
  Pending p;
  p.x = BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(digest, k_));
  return p;
}

SignService::Pending SignService::block_request(
    std::span<const std::uint8_t> input_be) const {
  if (input_be.size() != k_) {
    throw std::invalid_argument(
        "SignService::private_op: input must be exactly k bytes");
  }
  Pending p;
  p.x = BigInt::from_bytes_be(input_be);
  if (p.x >= engine_.pub().n) {
    throw std::invalid_argument("SignService::private_op: input >= modulus");
  }
  p.op = obs::WorkloadOp::kPrivateOp;
  return p;
}

std::future<SignResult> SignService::sign(
    std::span<const std::uint8_t> digest) {
  PHISSL_OBS_SPAN("svc.sign");
  return enqueue(digest_request(digest));
}

std::future<SignResult> SignService::private_op(
    std::span<const std::uint8_t> input_be) {
  PHISSL_OBS_SPAN("svc.private_op");
  return enqueue(block_request(input_be));
}

void SignService::sign_async(std::span<const std::uint8_t> digest,
                             Completion done, obs::WorkloadOp op) {
  PHISSL_OBS_SPAN("svc.sign_async");
  Pending p = digest_request(digest);
  p.done = std::move(done);
  p.op = op;
  (void)enqueue(std::move(p));
}

void SignService::private_op_async(std::span<const std::uint8_t> input_be,
                                   Completion done) {
  PHISSL_OBS_SPAN("svc.private_op_async");
  Pending p = block_request(input_be);
  p.done = std::move(done);
  (void)enqueue(std::move(p));
}

std::future<SignResult> SignService::enqueue(Pending&& p) {
  std::future<SignResult> fut = p.promise.get_future();
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("SignService::sign after stop()");
    }
    // Stamped under the lock, so the FIFO is in submit order and a full
    // flush forms at the submit time of its last request.
    p.submitted = Clock::now();
    pending_.push_back(std::move(p));
    const std::size_t n = pending_.size();
    const bool full = n % kBatch == 0;
    const bool starts_linger = n == 1 && config_.max_linger.has_value();
    wake = parked_ > 0 && (full || starts_linger);
  }
  metrics_->requests.inc();
  if (wake) cv_.notify_one();
  return fut;
}

SignService::Flush SignService::take_due(
    Clock::time_point now, std::optional<Clock::time_point>& wake) {
  Flush f;
  if (pending_.size() >= kBatch) {
    f.why = FlushReason::kFull;
    f.formed = pending_[kBatch - 1].submitted;
  } else if (pending_.empty()) {
    return f;
  } else if (stopping_) {
    f.why = FlushReason::kDrain;
    f.formed = stop_time_;
  } else if (!config_.max_linger) {
    return f;
  } else if (const Clock::time_point deadline =
                 pending_.front().submitted + *config_.max_linger;
             deadline > now) {
    wake = deadline;
    return f;
  } else {
    f.why = FlushReason::kLinger;
    f.formed = now;
  }
  const auto end = pending_.begin() +
                   static_cast<std::ptrdiff_t>(std::min(pending_.size(), kBatch));
  f.work.assign(std::make_move_iterator(pending_.begin()),
                std::make_move_iterator(end));
  pending_.erase(pending_.begin(), end);
  return f;
}

bool SignService::work_left() const {
  const std::size_t n = pending_.size();
  return n >= kBatch ||
         (n > 0 && (stopping_ || config_.max_linger.has_value()));
}

void SignService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::optional<Clock::time_point> wake;
    Flush f = take_due(Clock::now(), wake);
    if (!f.work.empty()) {
      // A parked worker may be sleeping past a deadline this one was
      // watching, or another flush may be due: let one look.
      if (parked_ > 0 && work_left()) cv_.notify_one();
      lock.unlock();
      run(std::move(f));  // the requests die with it, outside the lock
      lock.lock();
      continue;
    }
    // Nothing due. While stopping every queued request is due, so the
    // queue is empty and the drain is done.
    if (stopping_) return;
    ++parked_;
    if (wake) {
      cv_.wait_until(lock, *wake);
    } else {
      cv_.wait(lock);
    }
    --parked_;
  }
}

void SignService::run(Flush f) {
  metrics_->worker_wait_us.record(to_us(Clock::now() - f.formed));
  const std::size_t real = f.work.size();
  const bool single = runs_single(real, costs());

  // No lock: every record below is a lock-free registry metric.
  // `batches` is incremented BEFORE `full_batches` (and stats() reads
  // them in the opposite order), so a concurrent snapshot can never
  // observe full_batches > batches.
  if (single) {
    metrics_->single_ops.inc(real);
  } else {
    metrics_->batches.inc();
    if (real == kBatch) metrics_->full_batches.inc();
    metrics_->padded_lanes.inc(kBatch - real);
    metrics_->lanes_signed.inc(real);
  }
  switch (f.why) {
    case FlushReason::kFull:
      metrics_->flush_full.inc();
      break;
    case FlushReason::kLinger:
      metrics_->flush_linger.inc();
      break;
    case FlushReason::kDrain:
      metrics_->flush_drain.inc();
      break;
  }
  for (const Pending& p : f.work) {
    metrics_->queue_wait_us.record(to_us(f.formed - p.submitted));
  }
  if (PHISSL_OBS_WORKLOAD_ENABLED) {
    // One workload event per request. A batch's events carry its dispatch
    // ordinal and real lane count, so the trace shows per-batch occupancy;
    // single-stream ops record batch 0, lanes 0.
    // Timestamps reuse the steady_clock values already taken.
    obs::WorkloadRecorder& rec = obs::WorkloadRecorder::global();
    const std::uint64_t batch_id = single ? 0 : rec.next_batch_id();
    for (const Pending& p : f.work) {
      obs::WorkloadEvent ev;
      ev.arrival_ns = rec.rel_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              p.submitted.time_since_epoch())
              .count()));
      ev.queue_wait_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(f.formed -
                                                               p.submitted)
              .count());
      ev.batch_id = batch_id;
      ev.key_bits = static_cast<std::uint32_t>(k_ * 8);
      ev.op = p.op;
      ev.lanes_filled = static_cast<std::uint8_t>(single ? 0 : real);
      rec.record(ev);
    }
  }

  if (single) {
    run_single(f.work);
  } else {
    run_batch(f.work, f.formed);
  }
}

void SignService::run_batch(std::vector<Pending>& work,
                            Clock::time_point formed) {
  PHISSL_OBS_SPAN("svc.batch", "lanes",
                  static_cast<std::uint64_t>(work.size()));
  const Clock::time_point start = Clock::now();
  std::array<BigInt, kBatch> xs;
  std::array<BigInt, kBatch> out;
  for (std::size_t l = 0; l < kBatch; ++l) {
    xs[l] = l < work.size() ? work[l].x : dummy_;
  }
  try {
    engine_.private_op(xs, out);
    const Clock::time_point done = Clock::now();
    observe(batch_us_, to_us(done - start));
    // Serialize every signature before fulfilling any promise so a
    // failure cannot leave the batch half-fulfilled.
    std::vector<std::vector<std::uint8_t>> sigs(work.size());
    for (std::size_t l = 0; l < work.size(); ++l) {
      sigs[l] = out[l].to_bytes_be(k_);
    }
    for (std::size_t l = 0; l < work.size(); ++l) {
      work[l].deliver(SignResult{std::move(sigs[l]), work[l].submitted, done});
    }
    metrics_->service_us.record(to_us(done - formed));
  } catch (...) {
    for (Pending& p : work) p.fail(std::current_exception());
  }
}

void SignService::run_single(std::vector<Pending>& work) {
  PHISSL_OBS_SPAN("svc.single", "ops",
                  static_cast<std::uint64_t>(work.size()));
  BigInt out;
  for (Pending& p : work) {
    // Each op stands alone: one that throws fails only its own request.
    try {
      const Clock::time_point start = Clock::now();
      single_.private_op_into(p.x, out);
      const Clock::time_point done = Clock::now();
      const double us = to_us(done - start);
      observe(op_us_, us);
      metrics_->single_op_us.record(us);
      p.deliver(SignResult{out.to_bytes_be(k_), p.submitted, done});
    } catch (...) {
      p.fail(std::current_exception());
    }
  }
}

StatsSnapshot SignService::stats() const {
  StatsSnapshot s;
  // Lock-free: counter value() is an acquire-load sum. full_batches is
  // read BEFORE batches (run() increments them in the opposite order), so a mid-run snapshot can never show full_batches > batches.
  s.full_batches = metrics_->full_batches.value();
  s.batches = metrics_->batches.value();
  s.requests = metrics_->requests.value();
  s.padded_lanes = metrics_->padded_lanes.value();
  s.lanes_signed = metrics_->lanes_signed.value();
  s.single_ops = metrics_->single_ops.value();
  s.mean_lane_occupancy =
      s.batches == 0 ? 0.0
                     : static_cast<double>(s.lanes_signed) /
                           static_cast<double>(s.batches * kBatch);
  s.queue_wait_us = metrics_->queue_wait_us.snapshot().summary();
  s.service_us = metrics_->service_us.snapshot().summary();
  s.single_op_us = metrics_->single_op_us.snapshot().summary();
  return s;
}

void SignService::stop() {
  // call_once: a concurrent second caller waits here until the join.
  std::call_once(stop_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      stop_time_ = Clock::now();
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  });
}

RouteCosts SignServiceTestPeer::route_costs(const SignService& svc) {
  return svc.costs();
}

void SignServiceTestPeer::pin_route_costs(SignService& svc, RouteCosts costs) {
  svc.op_us_.store(costs.op_us);
  svc.batch_us_.store(costs.batch_us);
}

std::future<SignResult> SignServiceTestPeer::enqueue_unchecked(
    SignService& svc, const BigInt& x) {
  SignService::Pending p;
  p.x = x;
  p.op = obs::WorkloadOp::kPrivateOp;
  return svc.enqueue(std::move(p));
}

}  // namespace phissl::service
