// Handshake throughput driver: runs complete client/server handshakes
// (with optional session resumption) through the reactor terminator
// (ssl/async/) and reports handshakes/s — the workload behind the paper's
// motivation (SSL termination throughput limited by RSA).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "rsa/engine.hpp"
#include "ssl/async/admission.hpp"
#include "util/stats.hpp"

namespace phissl::ssl {

/// How bytes reach the reactor's connections. Both run the same Reactor
/// (ssl/async/reactor.hpp): nonblocking connection state machines
/// multiplexed over a small worker pool, crypto steps resumed through
/// completions, admission control shedding load before the private op.
enum class Frontend {
  /// In-process byte swap with a scripted client per slot
  /// (SimulatedTransport): deterministic, no kernel in the path.
  kEvent,
  /// Real loopback sockets (SocketTransport): epoll readiness feeds the
  /// state machines, and an in-process nonblocking client fleet supplies
  /// the load. Linux-only.
  kSocket,
};

struct DriverConfig {
  std::size_t num_handshakes = 64;  ///< total handshakes to run

  /// Transport under the reactor (see Frontend).
  Frontend frontend = Frontend::kEvent;
  /// Reactor worker threads.
  std::size_t event_workers = 2;
  /// Concurrently open connection slots (the in-flight bound; further
  /// connections start as slots free). Set it to event_workers with
  /// batch_private_ops off and each worker runs one connection at a time.
  std::size_t max_open_connections = 1024;
  /// Fraction of connections negotiating DHE-RSA (their ServerKeyExchange
  /// signature is a private op like the decryptions).
  double event_dhe_ratio = 0.0;
  /// Admission-control bounds (default: admit all).
  async::AdmissionConfig admission;
  /// Socket frontend: client connections the loopback fleet keeps open
  /// concurrently (the client-side window; the server side is bounded by
  /// max_open_connections independently).
  std::size_t socket_clients = 256;
  /// Socket frontend: Poisson client arrival rate (connections/s); 0
  /// opens as fast as the concurrency window allows.
  double socket_arrival_per_s = 0.0;
  std::uint64_t seed = 1;  ///< base RNG seed (per-connection derived)
  /// Fraction of connections that offer resumption of their client
  /// identity's latest session (see async::identity_pool_for). 0.0 = all
  /// full handshakes.
  double resumption_ratio = 0.0;

  /// The decrypter: route private ops through a BatchDecryptService so
  /// parked connections fill 16-lane SIMD batches; false resolves each op
  /// on the connection's reactor worker with the server engine (the
  /// paper's scalar baseline).
  bool batch_private_ops = true;
  /// Partial-batch linger bound for the batched path (also the linger
  /// term of the admission predictor, see async::AdmissionController).
  std::chrono::microseconds batch_linger{500};
  /// Dispatch workers for the batched path.
  std::size_t batch_dispatch_threads = 1;
  /// Montgomery backend for the batched private ops (see rsa/backend.hpp);
  /// the scalar decrypter follows the server engine's kernel instead.
  rsa::Backend batch_backend = rsa::Backend::kKncVec;

  /// Shared session-cache capacity (see SessionCacheConfig).
  std::size_t cache_capacity = 4096;
};

struct DriverReport {
  std::size_t completed = 0;    ///< handshakes that established a session
  std::size_t failed = 0;       ///< handshakes that alerted (should be 0)
  std::size_t resumed = 0;      ///< of completed, how many were abbreviated
  double wall_seconds = 0.0;    ///< total wall-clock time
  double handshakes_per_s = 0.0;
  util::Summary latency_us;     ///< per-handshake latency distribution

  // Session-cache effectiveness over the run.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  // Batched-decrypt scheduler counters (zero when batch_private_ops off).
  // Every request runs in a batch lane or single-stream, so once the run
  // is over lanes_signed + single_ops == service_requests and
  // padded_lanes == 16 * batches - lanes_signed.
  std::uint64_t service_requests = 0;   ///< private ops the service took
  std::uint64_t batches = 0;            ///< 16-lane dispatches issued
  std::uint64_t lanes_signed = 0;       ///< requests run in a batch lane
  std::uint64_t padded_lanes = 0;       ///< dummy lanes across all batches
  std::uint64_t single_ops = 0;         ///< requests run single-stream
  double batch_lane_occupancy = 0.0;    ///< real requests per dispatched lane

  // Reactor counters.
  std::uint64_t shed = 0;  ///< connections rejected by admission control
  /// Mean parked connections resumed per reactor wakeup (>1 means one
  /// batch completion is amortizing across its lanemates).
  double resumptions_per_wakeup = 0.0;

  // Socket-frontend transport counters (zero elsewhere).
  std::uint64_t accepts = 0;  ///< connections accepted by the listener
  std::uint64_t eagain = 0;   ///< recv/send cycles ended by EAGAIN
  std::uint64_t resets = 0;   ///< peer resets / premature EOFs observed
  std::uint64_t io_wakeups = 0;  ///< epoll_wait returns with an event
  std::uint64_t io_events = 0;   ///< readiness events they delivered
  std::uint64_t interest_changes = 0;  ///< EPOLL_CTL_MOD calls
  std::uint64_t handoffs = 0;  ///< accepted slots posted to another worker
};

/// Runs cfg.num_handshakes connections (each a full or resumed handshake
/// plus one protected echo) through the reactor terminator over
/// cfg.frontend, against a server using `server_engine` (must hold a
/// private key). The engine, the session cache and (when batching) the
/// batch service are shared by every connection, as in a real TLS
/// terminator.
DriverReport run_handshakes(const rsa::Engine& server_engine,
                            const DriverConfig& cfg);

}  // namespace phissl::ssl
