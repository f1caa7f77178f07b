// Event loop for the TLS terminator: multiplexes thousands of
// ServerConnection state machines over a small worker pool.
//
// A thread-per-connection server hits a structural wall: every
// connection awaiting its 16-lane batch holds a parked thread, so lane
// occupancy is bounded by thread count (occupancy = blocked_threads / 16;
// the termination sweep recorded at cf0c9e5 in
// bench/results/BENCH_handshake.json shows batching only beating scalar
// from ~16 threads for exactly this reason). The Reactor removes the
// thread from the wait: a connection that reaches a crypto step yields a
// PendingOp, and the connection becomes a heap object in a slot table.
//
// What resolves the op is the decrypter choice. With a BatchDecryptService
// the reactor submits it through the *_async completion bridge; when the
// batch completes — on a service dispatch thread — the completion
// callback does exactly one thing: it posts the result to the slot's
// owning worker. Without one (the scalar decrypter) the owning worker
// resolves the op inline with the server engine (resolve_pending_op) and
// resumes the connection at once. Both choices feed the same resume
// step, so admission feedback, shedding and the peer-gone path are one
// code path.
//
// Ownership: slot i belongs to worker i mod W for its whole life, and
// only that worker starts, pumps, resumes and closes it. The single-owner
// invariant is structural — no per-connection lock, no per-slot
// scheduling flags. A worker takes input from other threads only through
// its inbox (a mutex, a vector and a transport wake): batch completions
// from the dispatch thread, and slots the acceptor hands over. It drains
// the whole inbox per wakeup, so one wakeup typically resumes several
// lanemates of one 16-lane batch (resumptions-per-wakeup measures that
// amortization). A connection that finishes and starts the next one on
// the same slot goes through the worker's local run list instead of
// recursing: a shed storm would otherwise nest finish -> start -> pump ->
// finish thousands of frames deep.
//
// The reactor also OWNS admission (admission.hpp): connections consult
// the shared AdmissionController at their PendingOp creation point, and
// shed connections never reach the decrypter.
//
// Byte movement and waiting are delegated to a Transport (transport.hpp):
// the simulated vector-swap transport (deterministic, reactor-paced) and
// the epoll socket transport (real fds, accept-paced, one epoll set per
// worker) are two implementations of the same seam. This file knows
// nothing about sockets. ServerStack assembles the shared pieces from a
// DriverConfig once, for either transport.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dh/dh.hpp"
#include "rsa/engine.hpp"
#include "ssl/async/admission.hpp"
#include "ssl/async/connection.hpp"
#include "obs/metrics.hpp"
#include "ssl/batch_decrypt.hpp"
#include "ssl/driver.hpp"
#include "ssl/session_cache.hpp"
#include "util/stats.hpp"

namespace phissl::ssl::async {

class Transport;

/// Reactor geometry and workload shape.
struct ReactorConfig {
  /// Event-loop worker threads (NOT one per connection — 2–4 suffice to
  /// keep tens of thousands of connections moving). The slots are split
  /// across them (slot i belongs to worker i mod workers); a run with
  /// fewer slots than workers starts only one worker per slot.
  std::size_t workers = 2;
  /// Connection slots open concurrently, split across the workers; further
  /// connections start as slots free up. This bounds memory, and is the
  /// "connections" axis of the bench sweep.
  std::size_t max_open_connections = 1024;
  /// Total connections to terminate before run() returns.
  std::size_t total_connections = 1024;
  std::uint64_t seed = 1;
  /// Fraction of connections that offer resumption of a previous session
  /// (per client identity; see identity_pool). Consumed by the simulated
  /// transport / the socket client fleet, not the reactor itself.
  double resumption_ratio = 0.0;
  /// Fraction of connections negotiating DHE-RSA instead of RSA key
  /// transport (their private op is a signature, which the batched
  /// decrypter coalesces into the same batches as the decryptions).
  /// Requires a dhe_group.
  double dhe_ratio = 0.0;
  /// Distinct client identities cycling through the connection stream;
  /// each remembers its latest resumable session.
  std::size_t identity_pool = 256;
};

/// Outcome counters for one run() (merged into DriverReport by
/// ServerStack::report).
struct ReactorStats {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;     ///< rejected by admission control
  std::size_t resumed = 0;  ///< of completed, abbreviated handshakes
  /// Peer resets / premature EOFs (a subset of failed; zero on the
  /// simulated transport unless the state machine stalls).
  std::size_t resets = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t resumptions = 0;  ///< crypto completions across all wakeups
  /// Mean crypto completions per inbox drain — >1 means batch completions
  /// are amortizing wakeup cost across lanemates.
  double resumptions_per_wakeup = 0.0;
  util::Summary latency_us;  ///< per-connection accept-to-close latency
};

class Reactor {
 public:
  /// All dependencies are shared across every connection: the server
  /// engine (certificate + key), the batch service (the completion
  /// bridge target; null resolves every op inline on the slot's owner),
  /// the session cache, admission control, the optional DHE group
  /// (required if cfg.dhe_ratio > 0), and the transport that moves bytes.
  /// The transport must outlive the reactor; bind() is called here.
  Reactor(const rsa::Engine& server_engine, BatchDecryptService* svc,
          SessionCache& cache, AdmissionController& admission,
          const dh::Dh* dhe_group, Transport& transport, ReactorConfig cfg);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Terminates cfg.total_connections connections (each: handshake +
  /// one protected echo + orderly close), blocking until all complete.
  /// One-shot: a Reactor instance runs once.
  ReactorStats run();

  /// The geometry and workload shape the reactor runs (transports read
  /// the workload shape here at bind()).
  [[nodiscard]] const ReactorConfig& config() const { return cfg_; }
  /// Slots in the table (transports size their per-slot state to this).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// Worker threads run() starts: cfg.workers, but no more than slots.
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  /// The worker that owns `slot` for its whole life.
  [[nodiscard]] std::size_t owner(std::size_t slot) const {
    return slot % workers_.size();
  }

  /// Accept-paced transports: the acceptor (worker 0) wired a peer into a
  /// free slot. Queues the start on worker 0's run list when worker 0 owns
  /// the slot, else posts it to the owner's inbox; true for a hand-off.
  bool accepted(std::size_t slot_idx);

 private:
  struct Slot;
  struct Worker;
  struct Post;

  void worker_loop(std::size_t w);
  void start_connection(std::size_t slot_idx);
  void pump(std::size_t slot_idx);
  void submit(std::size_t slot_idx, PendingOp op);
  void resume(std::size_t slot_idx,
              std::optional<std::vector<std::uint8_t>> result);
  void post(Post p);
  void finish_connection(std::size_t slot_idx);

  const rsa::Engine& engine_;
  BatchDecryptService* svc_;  // null: the scalar decrypter
  SessionCache& cache_;
  AdmissionController& admission_;
  const dh::Dh* dhe_group_;
  Transport& transport_;
  ReactorConfig cfg_;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> done_{false};

  std::atomic<std::size_t> next_conn_{0};
  std::atomic<std::size_t> finished_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> resumed_{0};
  std::atomic<std::size_t> resets_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> events_{0};

  // Cached registry handles (a by-name lookup per connection would put a
  // map probe on the accept path).
  obs::Gauge* open_gauge_;
  obs::Counter* shed_counter_;
  obs::Counter* reset_counter_;
};

/// The terminator's server side, assembled from a DriverConfig in one
/// place for every transport: the decrypter (a BatchDecryptService when
/// cfg.batch_private_ops, else none), the session cache, admission
/// control, the DHE group (when cfg.event_dhe_ratio > 0) and a Reactor
/// over the caller's transport. run_event_handshakes() runs one over a
/// SimulatedTransport, SocketFrontend over a SocketTransport.
class ServerStack {
 public:
  /// Throws std::invalid_argument when the engine holds no private key, a
  /// ratio lies outside [0, 1] (NaN included) or the socket arrival rate
  /// is negative or not finite. The transport must outlive the stack.
  ServerStack(const rsa::Engine& server_engine, const DriverConfig& cfg,
              Transport& transport);

  // The reactor holds references into the stack.
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// Terminates cfg.num_handshakes connections (see Reactor::run).
  ReactorStats run() { return reactor_->run(); }

  /// Folds reactor outcomes, cache counters and, when batching, the batch
  /// service's scheduler counters into the common report.
  [[nodiscard]] DriverReport report(const ReactorStats& stats,
                                    double wall_seconds) const;

 private:
  std::unique_ptr<BatchDecryptService> svc_;  // null: the scalar decrypter
  SessionCache cache_;
  AdmissionController admission_;
  std::unique_ptr<dh::Dh> dhe_group_;  // null: no DHE-RSA suite
  std::unique_ptr<Reactor> reactor_;
};

/// The reactor over the simulated transport: a ServerStack whose
/// connections each pair with an in-process ScriptedClient. Called
/// through run_handshakes() when cfg.frontend == Frontend::kEvent.
DriverReport run_event_handshakes(const rsa::Engine& server_engine,
                                  const DriverConfig& cfg);

/// The identity-pool size for a run of n connections, on either transport:
/// scaled so each identity reconnects several times (a fixed pool larger
/// than the run would mean no identity ever returns and resumption_ratio
/// silently does nothing).
inline std::size_t identity_pool_for(std::size_t n) {
  return std::max<std::size_t>(1, std::min<std::size_t>(256, n / 8));
}

}  // namespace phissl::ssl::async
