#include "service/sign_service.hpp"

#include <algorithm>
#include <array>
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
            "per-request sign()-to-dispatch wait (microseconds)", svc)),
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
  Clock::time_point submitted;
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
/// key and backend, the route costs, and the (sub-16) submission queue.
struct SignService::Shard {
  Shard(rsa::PrivateKey key, rsa::Backend backend, unsigned digit_bits)
      : engine(key, backend, digit_bits),
        single(std::move(key), rsa::EngineOptions{.kernel = backend,
                                                  .digit_bits = digit_bits}),
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

  // Route costs in microseconds of execution on a dispatch worker.
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

  std::mutex mu;
  std::vector<Pending> pending;   // always < kBatch entries
  Clock::time_point oldest;       // submit time of pending.front()
};

SignService::SignService(SignServiceConfig config)
    : config_(config),
      metrics_(std::make_unique<Metrics>(next_svc_labels())),
      pool_(config.dispatch_threads) {
  config_.max_batch_lanes =
      std::clamp<std::size_t>(config_.max_batch_lanes, 1, kBatch);
  linger_thread_ = std::thread([this] { linger_loop(); });
}

SignService::~SignService() { stop(); }

void SignService::add_key(const std::string& key_id, rsa::PrivateKey key) {
  if (!accepting_.load()) {
    throw std::runtime_error("SignService::add_key after stop()");
  }
  auto shard = std::make_unique<Shard>(std::move(key), config_.backend,
                                       config_.digit_bits);
  // Measured where flushes run; a draining pool means stop() is racing
  // this call, so measure here instead.
  std::future<void> measured;
  try {
    measured = pool_.submit([&shard] { shard->calibrate(); });
  } catch (const std::runtime_error&) {
    shard->calibrate();
  }
  if (measured.valid()) measured.get();
  std::lock_guard<std::mutex> lock(shards_mu_);
  if (!shards_.emplace(key_id, std::move(shard)).second) {
    throw std::invalid_argument("SignService::add_key: duplicate key id \"" +
                                key_id + "\"");
  }
}

SignService::Shard& SignService::find_shard(const std::string& key_id) const {
  std::lock_guard<std::mutex> lock(shards_mu_);
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
  p.submitted = Clock::now();
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
  p.submitted = Clock::now();
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
  p.submitted = Clock::now();
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
  p.submitted = Clock::now();
  (void)enqueue(shard, std::move(p));
}

std::future<SignResult> SignService::enqueue(Shard& shard, Pending&& p) {
  std::future<SignResult> fut = p.promise.get_future();

  std::vector<Pending> batch;
  bool first_pending = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Checked under the shard lock so stop()'s drain (which sets
    // accepting_ first, then flushes under this lock) cannot miss us.
    if (!accepting_.load()) {
      throw std::runtime_error("SignService::sign after stop()");
    }
    if (shard.pending.empty()) {
      shard.oldest = p.submitted;
      first_pending = true;
    }
    shard.pending.push_back(std::move(p));
    if (shard.pending.size() >= config_.max_batch_lanes) {
      batch = std::move(shard.pending);
      shard.pending.clear();
    }
  }
  metrics_->requests.inc();

  if (!batch.empty()) {
    // Fast path: 16 pending, go now.
    dispatch(shard, std::move(batch), FlushReason::kFull);
  } else if (first_pending && !config_.full_batches_only) {
    // Arm the linger timer for this shard's new deadline.
    {
      std::lock_guard<std::mutex> lock(linger_mu_);
      ++linger_gen_;
    }
    linger_cv_.notify_one();
  }
  return fut;
}

void SignService::dispatch(Shard& shard, std::vector<Pending>&& batch,
                           FlushReason why) {
  const Clock::time_point dispatch_time = Clock::now();
  const std::size_t real = batch.size();
  const bool single = runs_single(real, shard.costs());
  // shared_ptr because ThreadPool::submit takes a copyable std::function
  // and promises are move-only.
  auto work = std::make_shared<std::vector<Pending>>(std::move(batch));

  // No lock: every record below is a shard-local atomic. `batches` is
  // incremented BEFORE `full_batches` (and stats() reads them in the
  // opposite order), so a concurrent snapshot can never observe
  // full_batches > batches.
  if (single) {
    metrics_->single_ops.inc(real);
  } else {
    metrics_->batches.inc();
    if (real == kBatch) metrics_->full_batches.inc();
    metrics_->padded_lanes.inc(kBatch - real);
    metrics_->lanes_signed.inc(real);
  }
  switch (why) {
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
  for (const Pending& p : *work) {
    metrics_->queue_wait_us.record(to_us(dispatch_time - p.submitted));
  }
  if (PHISSL_OBS_WORKLOAD_ENABLED) {
    // One workload event per request. A batch's events carry its dispatch
    // ordinal and real lane count so the replay engine can reconstruct
    // per-batch occupancy; single-stream ops record batch 0, lanes 0.
    // Timestamps reuse the steady_clock values already taken.
    obs::WorkloadRecorder& rec = obs::WorkloadRecorder::global();
    const std::uint64_t batch_id = single ? 0 : rec.next_batch_id();
    for (const Pending& p : *work) {
      obs::WorkloadEvent ev;
      ev.arrival_ns = rec.rel_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              p.submitted.time_since_epoch())
              .count()));
      ev.queue_wait_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dispatch_time -
                                                               p.submitted)
              .count());
      ev.batch_id = batch_id;
      ev.key_bits = shard.key_bits();
      ev.op = p.op;
      ev.lanes_filled = static_cast<std::uint8_t>(single ? 0 : real);
      rec.record(ev);
    }
  }

  inflight_.fetch_add(1);
  auto run = [this, &shard, work, dispatch_time, single] {
    if (single) {
      run_single(shard, *work);
    } else {
      run_batch(shard, *work, dispatch_time);
    }
    // A dispatch slot just freed up: wake the linger timer so a partial
    // flush whose deadline expired while we were busy goes out now.
    inflight_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(linger_mu_);
      ++linger_gen_;
    }
    linger_cv_.notify_one();
  };
  try {
    pool_.submit(run);
  } catch (const std::exception&) {
    // The pool is draining (a sign() racing stop() can get here): run the
    // flush inline so every promise is still fulfilled.
    run();
  }
}

void SignService::run_batch(Shard& shard, std::vector<Pending>& work,
                            Clock::time_point dispatch_time) {
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
    metrics_->service_us.record(to_us(done - dispatch_time));
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

void SignService::linger_loop() {
  std::unique_lock<std::mutex> lk(linger_mu_);
  for (;;) {
    if (stopping_) return;
    const std::uint64_t gen = linger_gen_;
    const auto changed = [&] { return stopping_ || linger_gen_ != gen; };

    // Lane-filling backpressure: while every dispatch slot is busy, an
    // expired partial would only sit in the pool queue — let it keep
    // filling instead and wait for a completion (which bumps gen).
    if (inflight_.load() >= pool_.size()) {
      linger_cv_.wait(lk, changed);
      continue;
    }

    // Earliest partial-batch deadline across all shards.
    std::optional<Clock::time_point> next;
    if (!config_.full_batches_only) {
      std::lock_guard<std::mutex> sl(shards_mu_);
      for (auto& [id, shard] : shards_) {
        std::lock_guard<std::mutex> pl(shard->mu);
        if (!shard->pending.empty()) {
          const Clock::time_point deadline = shard->oldest + config_.max_linger;
          if (!next || deadline < *next) next = deadline;
        }
      }
    }

    if (!next) {
      linger_cv_.wait(lk, changed);
      continue;
    }
    if (linger_cv_.wait_until(lk, *next, changed)) continue;  // re-evaluate
    if (inflight_.load() >= pool_.size()) continue;  // slot filled meanwhile

    // Deadline reached: flush every shard whose oldest request expired.
    PHISSL_OBS_SPAN("svc.linger_flush");
    const Clock::time_point now = Clock::now();
    std::vector<std::pair<Shard*, std::vector<Pending>>> flushes;
    {
      std::lock_guard<std::mutex> sl(shards_mu_);
      for (auto& [id, shard] : shards_) {
        std::lock_guard<std::mutex> pl(shard->mu);
        if (!shard->pending.empty() &&
            shard->oldest + config_.max_linger <= now) {
          flushes.emplace_back(shard.get(), std::move(shard->pending));
          shard->pending.clear();
        }
      }
    }
    for (auto& [shard, batch] : flushes) {
      dispatch(*shard, std::move(batch), FlushReason::kLinger);
    }
  }
}

StatsSnapshot SignService::stats() const {
  StatsSnapshot s;
  // Lock-free: counter value() is an acquire-load sum. full_batches is
  // read BEFORE batches (dispatch() increments them in the opposite
  // order), so a mid-run snapshot can never show full_batches > batches.
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
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;

  {
    std::lock_guard<std::mutex> lock(linger_mu_);
    stopping_ = true;
  }
  linger_cv_.notify_all();
  if (linger_thread_.joinable()) linger_thread_.join();

  // Reject new submissions, then drain: any sign() that passed its
  // accepting_ check did so under its shard's mutex, so taking each mutex
  // here is a barrier — every accepted request is either in pending (we
  // flush it) or was already dispatched (the pool drain below waits).
  accepting_.store(false);
  std::vector<std::pair<Shard*, std::vector<Pending>>> flushes;
  {
    std::lock_guard<std::mutex> sl(shards_mu_);
    for (auto& [id, shard] : shards_) {
      std::lock_guard<std::mutex> pl(shard->mu);
      if (!shard->pending.empty()) {
        flushes.emplace_back(shard.get(), std::move(shard->pending));
        shard->pending.clear();
      }
    }
  }
  for (auto& [shard, batch] : flushes) {
    dispatch(*shard, std::move(batch), FlushReason::kDrain);
  }
  pool_.shutdown();
  stopped_ = true;
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
  p.submitted = Clock::now();
  return svc.enqueue(svc.find_shard(key_id), std::move(p));
}

}  // namespace phissl::service
