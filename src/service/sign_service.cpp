#include "service/sign_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "rsa/engine.hpp"
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

/// One queued request: the EMSA-encoded digest as an integer in [0, n),
/// plus the promise OR completion callback the dispatch path fulfills
/// (`done` set means the request came through an *_async submission and
/// the promise is never touched).
struct SignService::Pending {
  BigInt x;
  std::promise<SignResult> promise;
  Completion done;
  Clock::time_point submitted;  // stamped by enqueue, under mu_
  obs::WorkloadOp op = obs::WorkloadOp::kSign;  // workload-trace tag

  /// Hands the request its result — exactly once per request.
  void deliver(SignResult r) {
    if (done) {
      // Async form: callback instead of future. A throwing completion is
      // a caller bug; swallow it so the other requests still deliver.
      try {
        done(std::move(r));
      } catch (...) {
      }
    } else {
      promise.set_value(std::move(r));
    }
  }
  /// Fails the request instead (the future rethrows `e`).
  void fail(std::exception_ptr e) {
    if (done) {
      try {
        done(std::nullopt);
      } catch (...) {
      }
    } else {
      promise.set_exception(std::move(e));
    }
  }
};

/// Per-key shard: the BatchEngine, the single-stream Engine over the same
/// key and backend, the route costs, and the submission FIFO.
struct SignService::Shard {
  Shard(rsa::PrivateKey key, rsa::Backend backend)
      : engine(key, backend),
        single(std::move(key), rsa::EngineOptions{.kernel = backend}),
        k(engine.pub().byte_size()) {
    // Dummy input for padded lanes: the EMSA encoding of an all-zero
    // digest. Any EMSA block starts 0x00 0x01, so its value is < 2^(8k-8)
    // <= n — always a valid private_op input. Using one fixed value keeps
    // the padded lanes on the identical 16-lane kernel shape; their
    // outputs are simply discarded.
    const util::Sha256::Digest zero{};
    dummy = BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(zero, k));
  }

  rsa::BatchEngine engine;
  rsa::Engine single;  // CRT, fixed window (EngineOptions defaults)
  std::size_t k;  // modulus byte size (signature length)
  BigInt dummy;
  std::uint32_t key_bits() const { return static_cast<std::uint32_t>(k * 8); }

  // Route costs in microseconds of execution, seeded by calibrate() and
  // updated by the dispatch workers.
  std::atomic<double> op_us{0.0};
  std::atomic<double> batch_us{0.0};
  RouteCosts costs() const {
    return {op_us.load(std::memory_order_relaxed),
            batch_us.load(std::memory_order_relaxed)};
  }

  /// Seeds the route costs from warm timed runs of each route.
  void calibrate() {
    BigInt one;
    std::array<BigInt, kBatch> xs;
    xs.fill(dummy);
    std::array<BigInt, kBatch> out;
    const auto timed = [](auto&& fn) {
      const Clock::time_point t0 = Clock::now();
      fn();
      return to_us(Clock::now() - t0);
    };
    // The first run of each warms this thread's workspaces and tables;
    // the faster of the two seeds the estimate, so one stalled run cannot.
    const auto op = [&] { single.private_op_into(dummy, one); };
    const auto batch = [&] { engine.private_op(xs, out); };
    op_us.store(std::min(timed(op), timed(op)));
    batch_us.store(std::min(timed(batch), timed(batch)));
  }

  // Guarded by SignService::mu_. Requests sit in submit order, and a
  // flush always takes kBatch (full) or everything (a partial), so every
  // kBatch-th entry closes a full flush.
  std::deque<Pending> pending;
};

/// A flush a worker took: up to kBatch requests from the front of one
/// shard's FIFO, stamped with the time it formed — when its last request
/// arrived (full), at the stop() call (drain), or when a worker took it
/// (linger). Queue wait ends and batch service time starts at that stamp,
/// so a flush queued behind a busy worker counts its wait there
/// (phissl_pool_task_wait_us), not as queue wait.
struct SignService::Flush {
  Shard* shard = nullptr;
  std::vector<Pending> work;
  FlushReason why = FlushReason::kFull;
  Clock::time_point formed;
};

SignService::SignService(SignServiceConfig config)
    : config_(config), metrics_(std::make_unique<Metrics>(next_svc_labels())) {
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

void SignService::add_key(const std::string& key_id, rsa::PrivateKey key) {
  auto shard = std::make_unique<Shard>(std::move(key), config_.backend);
  shard->calibrate();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    throw std::runtime_error("SignService::add_key after stop()");
  }
  if (!shards_.emplace(key_id, std::move(shard)).second) {
    throw std::invalid_argument("SignService::add_key: duplicate key id \"" +
                                key_id + "\"");
  }
}

SignService::Shard& SignService::find_shard(const std::string& key_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = shards_.find(key_id);
  if (it == shards_.end()) {
    throw std::invalid_argument("SignService: unknown key id \"" + key_id +
                                "\"");
  }
  return *it->second;  // shards are never removed while the service lives
}

const rsa::PublicKey& SignService::public_key(const std::string& key_id) const {
  return find_shard(key_id).engine.pub();
}

std::future<SignResult> SignService::sign(
    const std::string& key_id, std::span<const std::uint8_t> digest) {
  PHISSL_OBS_SPAN("svc.sign");
  Shard& shard = find_shard(key_id);

  Pending p;
  p.x = BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(digest, shard.k));
  return enqueue(shard, std::move(p));
}

std::future<SignResult> SignService::private_op(
    const std::string& key_id, std::span<const std::uint8_t> input_be) {
  PHISSL_OBS_SPAN("svc.private_op");
  Shard& shard = find_shard(key_id);
  if (input_be.size() != shard.k) {
    throw std::invalid_argument(
        "SignService::private_op: input must be exactly k bytes");
  }
  Pending p;
  p.x = BigInt::from_bytes_be(input_be);
  if (p.x >= shard.engine.pub().n) {
    throw std::invalid_argument("SignService::private_op: input >= modulus");
  }
  p.op = obs::WorkloadOp::kPrivateOp;
  return enqueue(shard, std::move(p));
}

void SignService::sign_async(const std::string& key_id,
                             std::span<const std::uint8_t> digest,
                             Completion done, obs::WorkloadOp op) {
  PHISSL_OBS_SPAN("svc.sign_async");
  Shard& shard = find_shard(key_id);
  Pending p;
  p.x = BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(digest, shard.k));
  p.done = std::move(done);
  p.op = op;
  (void)enqueue(shard, std::move(p));
}

void SignService::private_op_async(const std::string& key_id,
                                   std::span<const std::uint8_t> input_be,
                                   Completion done) {
  PHISSL_OBS_SPAN("svc.private_op_async");
  Shard& shard = find_shard(key_id);
  if (input_be.size() != shard.k) {
    throw std::invalid_argument(
        "SignService::private_op_async: input must be exactly k bytes");
  }
  Pending p;
  p.x = BigInt::from_bytes_be(input_be);
  if (p.x >= shard.engine.pub().n) {
    throw std::invalid_argument(
        "SignService::private_op_async: input >= modulus");
  }
  p.done = std::move(done);
  p.op = obs::WorkloadOp::kPrivateOp;
  (void)enqueue(shard, std::move(p));
}

std::future<SignResult> SignService::enqueue(Shard& shard, Pending&& p) {
  std::future<SignResult> fut = p.promise.get_future();
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("SignService::sign after stop()");
    }
    // Stamped under the lock, so each FIFO is in submit order and a full
    // flush forms at the submit time of its last request.
    p.submitted = Clock::now();
    shard.pending.push_back(std::move(p));
    const std::size_t n = shard.pending.size();
    const bool full = n % kBatch == 0;
    const bool starts_linger = n == 1 && !config_.full_batches_only;
    wake = parked_ > 0 && (full || starts_linger);
  }
  metrics_->requests.inc();
  if (wake) cv_.notify_one();
  return fut;
}

SignService::Flush SignService::take_due(
    Clock::time_point now, std::optional<Clock::time_point>& wake) {
  Flush f;
  for (auto& [id, shard] : shards_) {
    const std::deque<Pending>& q = shard->pending;
    if (q.empty()) continue;
    FlushReason why;
    Clock::time_point formed;
    if (q.size() >= kBatch) {
      why = FlushReason::kFull;
      formed = q[kBatch - 1].submitted;
    } else if (stopping_) {
      why = FlushReason::kDrain;
      formed = stop_time_;
    } else if (config_.full_batches_only) {
      continue;
    } else if (const Clock::time_point deadline =
                   q.front().submitted + config_.max_linger;
               deadline > now) {
      if (!wake || deadline < *wake) wake = deadline;
      continue;
    } else {
      why = FlushReason::kLinger;
      formed = now;
    }
    // Earliest formed first; expired partials (all formed now) oldest
    // request first.
    if (f.shard == nullptr || formed < f.formed ||
        (formed == f.formed &&
         q.front().submitted < f.shard->pending.front().submitted)) {
      f.shard = shard.get();
      f.why = why;
      f.formed = formed;
    }
  }
  if (f.shard != nullptr) {
    std::deque<Pending>& q = f.shard->pending;
    const auto end =
        q.begin() + static_cast<std::ptrdiff_t>(std::min(q.size(), kBatch));
    f.work.assign(std::make_move_iterator(q.begin()),
                  std::make_move_iterator(end));
    q.erase(q.begin(), end);
  }
  return f;
}

bool SignService::work_left() const {
  for (const auto& [id, shard] : shards_) {
    const std::size_t n = shard->pending.size();
    if (n >= kBatch || (n > 0 && (stopping_ || !config_.full_batches_only))) {
      return true;
    }
  }
  return false;
}

void SignService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::optional<Clock::time_point> wake;
    Flush f = take_due(Clock::now(), wake);
    if (f.shard != nullptr) {
      // A parked worker may be sleeping past a deadline this one was
      // watching, or another flush may be due: let one look.
      if (parked_ > 0 && work_left()) cv_.notify_one();
      lock.unlock();
      run(std::move(f));  // the requests die with it, outside the lock
      lock.lock();
      continue;
    }
    // Nothing due. While stopping every queued request is due, so the
    // queues are empty and the drain is done.
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
  Shard& shard = *f.shard;
  const std::size_t real = f.work.size();
  const bool single = runs_single(real, shard.costs());

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
      ev.key_bits = shard.key_bits();
      ev.op = p.op;
      ev.lanes_filled = static_cast<std::uint8_t>(single ? 0 : real);
      rec.record(ev);
    }
  }

  if (single) {
    run_single(shard, f.work);
  } else {
    run_batch(shard, f.work, f.formed);
  }
}

void SignService::run_batch(Shard& shard, std::vector<Pending>& work,
                            Clock::time_point formed) {
  PHISSL_OBS_SPAN("svc.batch", "lanes",
                  static_cast<std::uint64_t>(work.size()));
  const Clock::time_point start = Clock::now();
  std::array<BigInt, kBatch> xs;
  std::array<BigInt, kBatch> out;
  for (std::size_t l = 0; l < kBatch; ++l) {
    xs[l] = l < work.size() ? work[l].x : shard.dummy;
  }
  try {
    shard.engine.private_op(xs, out);
    const Clock::time_point done = Clock::now();
    observe(shard.batch_us, to_us(done - start));
    // Serialize every signature before fulfilling any promise so a
    // failure cannot leave the batch half-fulfilled.
    std::vector<std::vector<std::uint8_t>> sigs(work.size());
    for (std::size_t l = 0; l < work.size(); ++l) {
      sigs[l] = out[l].to_bytes_be(shard.k);
    }
    for (std::size_t l = 0; l < work.size(); ++l) {
      work[l].deliver(SignResult{std::move(sigs[l]), work[l].submitted, done});
    }
    metrics_->service_us.record(to_us(done - formed));
  } catch (...) {
    for (Pending& p : work) p.fail(std::current_exception());
  }
}

void SignService::run_single(Shard& shard, std::vector<Pending>& work) {
  PHISSL_OBS_SPAN("svc.single", "ops",
                  static_cast<std::uint64_t>(work.size()));
  BigInt out;
  for (Pending& p : work) {
    // Each op stands alone: one that throws fails only its own request.
    try {
      const Clock::time_point start = Clock::now();
      shard.single.private_op_into(p.x, out);
      const Clock::time_point done = Clock::now();
      const double us = to_us(done - start);
      observe(shard.op_us, us);
      metrics_->single_op_us.record(us);
      p.deliver(SignResult{out.to_bytes_be(shard.k), p.submitted, done});
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

RouteCosts SignServiceTestPeer::route_costs(const SignService& svc,
                                            const std::string& key_id) {
  return svc.find_shard(key_id).costs();
}

void SignServiceTestPeer::pin_route_costs(SignService& svc,
                                          const std::string& key_id,
                                          RouteCosts costs) {
  SignService::Shard& shard = svc.find_shard(key_id);
  shard.op_us.store(costs.op_us);
  shard.batch_us.store(costs.batch_us);
}

std::future<SignResult> SignServiceTestPeer::enqueue_unchecked(
    SignService& svc, const std::string& key_id, const BigInt& x) {
  SignService::Pending p;
  p.x = x;
  p.op = obs::WorkloadOp::kPrivateOp;
  return svc.enqueue(svc.find_shard(key_id), std::move(p));
}

}  // namespace phissl::service
