// Asynchronous batched signing service: the on-ramp that feeds the
// 16-lane BatchEngine from irregular single-request traffic.
//
// The batch kernels (rsa::BatchEngine over mont::BatchVectorMontCtx) hit
// the paper's headline throughput only when all 16 SIMD lanes carry real
// work, but a server sees requests one at a time. This service closes the
// gap for one private key: callers submit single
// `sign(digest) -> future<SignResult>` requests and the service
// transparently coalesces them into full 16-lane batches. The flush
// policy is adaptive:
//
//   - the moment 16 requests are pending, the batch is due and the next
//     free dispatch worker runs it (the fast path — zero added latency
//     under load);
//   - otherwise a partial batch is flushed once its oldest request has
//     lingered for `max_linger` AND a dispatch slot is free.
//
// The dispatch-slot condition is what makes the scheduler lane-FILLING
// rather than merely deadline-driven: while every worker is busy, an
// expired partial keeps accumulating arrivals (a flush could not start
// any sooner anyway), so under load batches reach 16 lanes on their own
// and the deadline only ever fires into an idle worker. Without it, a
// short linger at moderate load shreds the queue into 2–3-lane batches
// whose per-batch cost is that of a full one — effective capacity drops
// ~8x and the backlog (and tail latency) diverges; bench_sign_service's
// sweep is exactly the experiment that exposes this.
//
// Each flush then picks its route by cost (service/route.hpp): a partial
// flush of k requests runs them one after another on the key's
// single-stream engine (same backend, CRT, fixed window) when k single
// ops cost less than one batch, and otherwise runs the fixed-shape
// 16-lane batch with the unused lanes padded by a precomputed dummy input
// (their results discarded). Without the route, a sparse stream whose
// oldest request has always lingered past its deadline by the time the
// slot frees sends every flush out as a mostly padded batch back to back,
// so dispatch takes a whole core at any offered rate. The two costs are
// execution times the service measures on the dispatch workers — seeded
// by timed runs of each in the constructor, updated by every flush,
// never including the wait for a worker.
//
// Net effect: at light load a request waits at most max_linger before its
// flush runs, at the single-stream cost; at heavy load lane occupancy
// approaches 100% — the occupancy-vs-latency knob bench_sign_service
// sweeps.
//
// The service owns `dispatch_threads` dispatch workers, and they are the
// scheduler: each, under the one service mutex, takes the due flush at
// the front of the FIFO — 16 requests pending (full), else the stop()
// drain, else an expired partial — runs it unlocked, and looks for the
// next before it parks on the service's condition variable until the
// linger deadline. A parked worker is the free dispatch slot the
// lane-filling rule asks for, so an expired partial flushes only into an
// idle worker by construction, and queued full flushes overlap on
// multi-worker configurations.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "obs/workload.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "service/route.hpp"
#include "util/stats.hpp"

namespace phissl::service {

/// Tuning knobs for a SignService.
struct SignServiceConfig {
  /// Dispatch worker threads the service owns (0 is clamped to 1). Each
  /// runs one flush at a time: a 16-lane batch or a run of single-stream
  /// ops.
  std::size_t dispatch_threads = 2;
  /// How long the oldest pending request may wait before a partial flush,
  /// which then runs as soon as a dispatch worker is free (see the file
  /// comment). Smaller = lower tail latency at light load, lower lane
  /// occupancy. std::nullopt never flushes a partial on a deadline: only
  /// 16 pending requests dispatch (plus a final drain at stop()) — the
  /// forced-full baseline bench_sign_service compares against, maximal
  /// occupancy and unbounded queueing latency at light load.
  std::optional<std::chrono::microseconds> max_linger =
      std::chrono::microseconds(500);
  /// Montgomery backend of the key's engines, batched and single-stream
  /// (see rsa/backend.hpp; ifma52 runs its portable twin on hosts without
  /// AVX-512 IFMA). Must have a batched form: the constructor throws
  /// std::invalid_argument for kScalar32/kScalar64.
  rsa::Backend backend = rsa::Backend::kIfma52;
};

/// A completed signing request: the PKCS#1 v1.5 signature block plus the
/// service-side timestamps (submit and completion) so callers — load
/// generators and tracing alike — can compute exact per-request latency
/// without polling the future.
struct SignResult {
  /// k-byte big-endian RSASSA-PKCS1-v1_5(SHA-256) signature.
  std::vector<std::uint8_t> signature;
  std::chrono::steady_clock::time_point submitted_at;
  std::chrono::steady_clock::time_point completed_at;
};

/// A point-in-time snapshot of service counters; cheap to take while the
/// service is running.
///
/// Once every accepted request has completed, each ran either in a batch
/// lane or single-stream: lanes_signed + single_ops == requests, and
/// padded_lanes == 16 * batches - lanes_signed.
struct StatsSnapshot {
  std::uint64_t requests = 0;      ///< sign() calls accepted
  std::uint64_t batches = 0;       ///< 16-lane dispatches issued
  std::uint64_t full_batches = 0;  ///< dispatches with no padded lane
  std::uint64_t padded_lanes = 0;  ///< dummy lanes across all batches
  std::uint64_t lanes_signed = 0;  ///< requests that ran in a batch lane
  std::uint64_t single_ops = 0;    ///< requests that ran single-stream
  /// Real requests per dispatched lane: lanes_signed / (batches * 16).
  /// 1.0 means every dispatched lane carried caller work.
  double mean_lane_occupancy = 0.0;
  /// Per-request time from sign() to the moment its flush formed
  /// (microseconds): the arrival of a full flush's last request, the
  /// stop() call for a drain, a worker taking an expired partial.
  util::Summary queue_wait_us;
  /// Per-batch kernel + completion time (microseconds).
  util::Summary service_us;
  /// Per-request single-stream private op time (microseconds).
  util::Summary single_op_us;
};

class SignService {
 public:
  static constexpr std::size_t kBatch = rsa::BatchEngine::kBatch;

  /// Completion callback for the non-blocking submission forms
  /// (sign_async / private_op_async): invoked exactly once with the
  /// result, or with nullopt if its private op failed. It runs on a
  /// dispatch worker thread immediately after the op completes, so it
  /// must be cheap and must not block (the event-driven TLS frontend's
  /// bridge, for example, only enqueues a resume event into its reactor —
  /// see ssl/async/reactor.hpp). Re-entering the service from the
  /// callback is allowed (submitting follow-up work is fine); blocking on
  /// another future of the same service is not (it could deadlock the
  /// dispatch workers), and neither is calling stop().
  using Completion = std::function<void(std::optional<SignResult>)>;

  /// Serves `key`: builds its 16-lane BatchEngine and single-stream
  /// Engine over config.backend and seeds both route costs from timed
  /// warm runs of each on the calling thread (every flush then
  /// re-measures them on its worker), so it takes a few private ops'
  /// time; then starts the dispatch workers. Throws std::invalid_argument
  /// for a backend without a batched form.
  explicit SignService(rsa::PrivateKey key, SignServiceConfig config = {});

  /// Stops the service (flushing and completing everything pending).
  ~SignService();

  SignService(const SignService&) = delete;
  SignService& operator=(const SignService&) = delete;

  /// Public half of the key (for verification).
  [[nodiscard]] const rsa::PublicKey& public_key() const {
    return engine_.pub();
  }

  /// Queues one signing request: the returned future resolves to the
  /// RSASSA-PKCS1-v1_5 signature of the given 32-byte SHA-256 `digest`.
  /// Thread-safe. Throws std::invalid_argument for a non-32-byte digest
  /// and std::runtime_error after stop().
  std::future<SignResult> sign(std::span<const std::uint8_t> digest);

  /// Queues one RAW private-key operation: `input_be` must be exactly the
  /// modulus size (k bytes, big-endian) with value < n, and the returned
  /// future resolves to x^d mod n as a k-byte block in
  /// SignResult::signature (no EMSA encoding on the way in, no padding
  /// interpretation on the way out). This is the TLS-termination on-ramp:
  /// ClientKeyExchange decryptions from many concurrent connections
  /// coalesce into the same adaptive 16-lane batches as signing traffic,
  /// sharing the linger/backpressure scheduler and the key's BatchEngine.
  /// Thread-safe. Throws std::invalid_argument for a wrong-size block or
  /// a value >= n, and std::runtime_error after stop().
  std::future<SignResult> private_op(std::span<const std::uint8_t> input_be);

  /// Non-blocking sibling of sign(): queues the request and delivers the
  /// result through `done` (see Completion for the threading contract)
  /// instead of a future, so callers multiplexing thousands of
  /// connections never park a thread per request. Argument validation
  /// still throws synchronously, exactly like sign().
  /// `op` tags the request in the workload trace (obs/workload.hpp): the
  /// DHE-RSA path passes kDheSign so the recorded op mix distinguishes
  /// server-signature traffic from key-transport signing.
  void sign_async(std::span<const std::uint8_t> digest, Completion done,
                  obs::WorkloadOp op = obs::WorkloadOp::kSign);

  /// Non-blocking sibling of private_op(): same raw x^d mod n contract,
  /// result delivered through `done`. Argument validation (wrong-size
  /// block, value >= n) still throws synchronously.
  void private_op_async(std::span<const std::uint8_t> input_be,
                        Completion done);

  /// Counter snapshot; safe to call concurrently with sign()/dispatches.
  [[nodiscard]] StatsSnapshot stats() const;

  /// Stops accepting requests, lets the workers drain the queue (full
  /// flushes first, then one drain flush for the partial), and joins
  /// them: every returned future is ready afterwards. Idempotent, and a
  /// concurrent second call also returns only after the join; called by
  /// the destructor. Must not be called from a dispatch worker.
  void stop();

 private:
  using Clock = std::chrono::steady_clock;
  struct Flush;

  /// One queued request: the EMSA-encoded digest (or raw block) as an
  /// integer in [0, n), plus the promise OR completion callback the
  /// dispatch path fulfills (`done` set means the request came through an
  /// *_async submission and the promise is never touched).
  struct Pending {
    bigint::BigInt x;
    std::promise<SignResult> promise;
    Completion done;
    Clock::time_point submitted;  // stamped by enqueue, under mu_
    obs::WorkloadOp op = obs::WorkloadOp::kSign;  // workload-trace tag

    /// Hands the request its result — exactly once per request.
    void deliver(SignResult r);
    /// Fails the request instead (the future rethrows `e`).
    void fail(std::exception_ptr e);
  };

  /// Why a batch left the queue: 16 requests pending (full), linger
  /// deadline, or the stop() drain. Feeds the phissl_service_flush_total
  /// counters.
  enum class FlushReason { kFull, kLinger, kDrain };

  /// The checked request for sign()/private_op() and their async forms.
  [[nodiscard]] Pending digest_request(
      std::span<const std::uint8_t> digest) const;
  [[nodiscard]] Pending block_request(
      std::span<const std::uint8_t> input_be) const;
  /// Shared submission tail: stamps and queues the encoded request,
  /// waking a parked worker if it made a flush due now or started a
  /// linger deadline.
  std::future<SignResult> enqueue(Pending&& p);
  /// Under mu_: pops the due flush at the front of the FIFO, or returns
  /// an empty one and sets `wake` to the linger deadline, if any.
  Flush take_due(Clock::time_point now,
                 std::optional<Clock::time_point>& wake);
  /// Under mu_: whether a queued request will need a worker (a due flush
  /// or a pending linger deadline).
  [[nodiscard]] bool work_left() const;
  /// Seeds the route costs from warm timed runs of each route.
  void calibrate();
  [[nodiscard]] RouteCosts costs() const {
    return {op_us_.load(std::memory_order_relaxed),
            batch_us_.load(std::memory_order_relaxed)};
  }
  void worker_loop();
  /// Records a flush's counters and events, then runs it on its route.
  void run(Flush f);
  /// The two routes of a flush, on a dispatch worker.
  void run_batch(std::vector<Pending>& work, Clock::time_point formed);
  void run_single(std::vector<Pending>& work);

  friend struct SignServiceTestPeer;

  SignServiceConfig config_;

  // The key: a BatchEngine and a single-stream Engine over the same key
  // and backend (CRT, fixed window), the modulus byte size (signature
  // length), and the input of padded lanes.
  rsa::BatchEngine engine_;
  rsa::Engine single_;
  std::size_t k_;
  bigint::BigInt dummy_;
  // Route costs in microseconds of execution, seeded by calibrate() and
  // updated by the dispatch workers.
  std::atomic<double> op_us_{0.0};
  std::atomic<double> batch_us_{0.0};

  // Stats block: obs::Registry-backed counters and histograms, labelled
  // svc="N" per instance so concurrent services stay separate. Every
  // record path is lock-free (this replaced a global stats mutex taken on
  // each request — see src/obs/metrics.hpp); stats() reassembles the same
  // StatsSnapshot from counter sums and histogram snapshots.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;

  // The scheduler: mu_ guards the queue, the parked-worker count and the
  // stop flag; cv_ parks idle workers. Requests sit in submit order, and a
  // flush always takes kBatch (full) or everything (a partial), so every
  // kBatch-th entry closes a full flush.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  std::size_t parked_ = 0;
  bool stopping_ = false;
  Clock::time_point stop_time_;  // when the drain flush formed
  std::once_flag stop_once_;
  std::vector<std::thread> workers_;
};

/// Test seam: reads and pins the route costs (a pinned cost stays until a
/// flush on its route measures a new one) and queues a raw request past
/// the submission checks, so tests can drive both routes and a failing
/// single op.
struct SignServiceTestPeer {
  static RouteCosts route_costs(const SignService& svc);
  static void pin_route_costs(SignService& svc, RouteCosts costs);
  static std::future<SignResult> enqueue_unchecked(SignService& svc,
                                                   const bigint::BigInt& x);
};

}  // namespace phissl::service
