// Transport seam for the event-driven TLS terminator, and its two
// implementations: the deterministic in-process byte-swap transport the
// tests and the event bench use, and the real epoll socket transport.
//
// The Reactor (reactor.hpp) schedules ServerConnection state machines and
// resolves their crypto waits; everything about HOW
// bytes reach a connection — and how a worker waits for them — lives
// behind Transport. Each reactor worker blocks in wait(), which returns
// the worker's slots whose peer is ready (or nothing, after a wake()).
// The reactor calls exchange() whenever a slot becomes runnable (start,
// readiness, crypto resume) and the transport moves as many bytes as it
// can in both directions through the connection's on_input/take_output
// interface, reporting whether the connection settled, the peer vanished,
// or the slot simply parked again (awaiting readiness or a crypto result).
//
// SimulatedTransport pairs each slot with a ScriptedClient and swaps byte
// vectors — no kernel, fully deterministic, the reactor paces connection
// starts itself, and a worker's wait() is a condition variable that only
// wake() signals. It stays the default for unit tests and the in-process
// event sweep.
//
// SocketTransport owns a loopback/any-interface listener and one epoll set
// per reactor worker, holding that worker's connection fds, its wake
// eventfd and, on worker 0 only, the listener. Worker 0 is the acceptor:
// it claims a free slot (from the worker with the most) before accepting,
// and the reactor starts the connection on the slot's owner. Interest is
// level-triggered with no one-shot re-arm: the fd joins its owner's set
// once at open() and leaves it at close, and EPOLL_CTL_MOD runs only to turn
// EPOLLOUT on or off around a backpressured send. Only the owner waits on
// the set, so readiness can never reach a second thread. EPOLLIN stays
// armed while a connection is parked on a crypto op, which is how a peer
// RST during kAwaitPrivateOp is noticed immediately rather than at the
// next write.
//
// The client fleet (run_load) is the other half of the loopback story: N
// concurrent nonblocking ScriptedClients over real sockets, with Poisson
// arrivals and the same resumption/DHE mix knobs as the simulated
// transport. tools/phissl_loadgen wraps it as a standalone binary.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rsa/engine.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/reactor.hpp"
#include "ssl/driver.hpp"
#include "util/stats.hpp"

namespace phissl::ssl::async {

namespace detail {

/// splitmix64: deterministic per-connection coin flips, so a run's
/// resumption/DHE mix is reproducible regardless of scheduling. Shared by
/// the reactor (per-connection seeds), the simulated transport, and the
/// socket client fleet so all three draw the same mix for the same index.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline bool coin(std::uint64_t seed, std::size_t idx, std::uint32_t salt,
                 double ratio) {
  if (ratio <= 0.0) return false;
  const std::uint64_t h = mix(seed ^ mix(idx) ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < ratio;
}

/// A ratio coin() can draw: in [0, 1]. Written so that NaN, which coin()
/// would silently treat as 0, fails too.
inline bool valid_ratio(double r) { return r >= 0.0 && r <= 1.0; }

/// An arrival rate: finite and non-negative (0 = closed loop).
inline bool valid_rate(double r) { return std::isfinite(r) && r >= 0.0; }

}  // namespace detail

/// What exchange() found when it stopped moving bytes.
enum class IoStatus {
  kOk,        ///< parked again: awaiting I/O readiness or a crypto result
  kSettled,   ///< connection fully over: output flushed, state kClosed
  kPeerGone,  ///< peer reset / vanished / protocol stall — tear down
};

/// The byte-moving and waiting half of the terminator. exchange(), open()
/// and on_close() run on the slot's owning worker (Reactor::owner), and
/// wait(w) on worker w only, so per-slot and per-worker transport state
/// needs no lock; wake() may come from any thread.
class Transport {
 public:
  virtual ~Transport() = default;

  /// One-time wiring; the reactor calls this from its constructor, once
  /// its slot table and worker count are fixed.
  virtual void bind(Reactor& reactor) = 0;
  /// Reactor::run() calls this after its workers joined (the socket
  /// transport folds in its workers' last counts).
  virtual void stop() {}

  /// True when the reactor paces connection starts itself by drawing the
  /// next connection index as slots free (simulated transport). A socket
  /// transport paces via its acceptor instead (Reactor::accepted).
  [[nodiscard]] virtual bool reactor_paced() const = 0;

  /// A connection just started in `slot` (index conn_idx, per-connection
  /// seed `seed`): wire up the peer side. The simulated transport builds
  /// its ScriptedClient here; the socket transport adds the fd to the
  /// owner's epoll set.
  virtual void open(std::size_t slot, std::size_t conn_idx,
                    std::uint64_t seed) = 0;

  /// Move bytes both directions until nothing further can move. Returns
  /// early (kOk) when the connection parks on a PendingOp — the reactor
  /// owns op submission.
  virtual IoStatus exchange(std::size_t slot, ServerConnection& conn) = 0;

  /// The reactor closed the connection in `slot` and is done with it. The
  /// simulated transport banks resumable sessions here; the socket
  /// transport closes the fd if still open and frees the slot for the
  /// acceptor.
  virtual void on_close(std::size_t slot) = 0;

  /// Blocks worker `worker` until it may have work: appends its slots
  /// whose peer is ready to `ready`, or returns with nothing appended
  /// after a wake(). Called by that worker only.
  virtual void wait(std::size_t worker, std::vector<std::size_t>& ready) = 0;
  /// Makes `worker`'s current or next wait() return. Any thread.
  virtual void wake(std::size_t worker) = 0;
};

/// Deterministic in-process transport: each slot pairs the server with a
/// ScriptedClient and byte vectors swap directly. Drives the resumption/
/// DHE mix from the bound reactor's ReactorConfig (seed, ratios, identity
/// pool), banking resumable sessions per client identity.
class SimulatedTransport final : public Transport {
 public:
  /// client_engine needs only the server's public key.
  explicit SimulatedTransport(const rsa::Engine& client_engine);

  void bind(Reactor& reactor) override;
  [[nodiscard]] bool reactor_paced() const override { return true; }
  void open(std::size_t slot, std::size_t conn_idx,
            std::uint64_t seed) override;
  IoStatus exchange(std::size_t slot, ServerConnection& conn) override;
  void on_close(std::size_t slot) override;
  void wait(std::size_t worker, std::vector<std::size_t>& ready) override;
  void wake(std::size_t worker) override;

 private:
  struct SimSlot {
    std::optional<ScriptedClient> client;
    std::size_t identity = 0;
  };
  struct Waker {
    std::mutex mu;
    std::condition_variable cv;
    bool woken = false;
  };

  const rsa::Engine& client_engine_;
  ReactorConfig cfg_;  // the bound reactor's
  std::vector<SimSlot> slots_;
  std::unique_ptr<Waker[]> wakers_;  // one per worker

  // Client identities: identity i's latest resumable session, offered by
  // the next connection drawn for that identity. Workers touch different
  // slots concurrently but share this pool, hence the mutex.
  std::mutex identities_mu_;
  std::vector<std::optional<ResumableSession>> identities_;
};

/// Socket-transport knobs beyond what ReactorConfig covers.
struct SocketTransportConfig {
  /// Listen port; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Bind address. Loopback by default — the load generator runs on the
  /// same host in every current deployment of this repo.
  std::string bind_addr = "127.0.0.1";
  int backlog = 256;
  /// Per-worker read buffer, and the slice size of each send; flights
  /// larger than this arrive across multiple recv() calls (partial-read
  /// handling is exercised either way).
  std::size_t read_chunk = 16 * 1024;
  /// Test knob: SO_SNDBUF for accepted sockets (0 = kernel default).
  /// Shrinking it forces the server flight to split across EAGAIN.
  int accepted_sndbuf = 0;
};

/// Transport-level counters (reactor-level outcomes live in ReactorStats).
/// Each worker tallies its own and folds them in once per wakeup.
struct SocketTransportStats {
  std::uint64_t accepts = 0;        ///< connections accepted
  std::uint64_t eagain_reads = 0;   ///< recv() cycles ended by EAGAIN
  std::uint64_t eagain_writes = 0;  ///< send() cycles ended by EAGAIN
  std::uint64_t resets = 0;         ///< peer resets / premature EOFs
  std::uint64_t wakeups = 0;  ///< epoll_wait returns with at least one event
  std::uint64_t events = 0;   ///< readiness events those wakeups delivered
  /// EPOLL_CTL_MOD calls: EPOLLOUT on/off, listener pause/resume.
  std::uint64_t interest_changes = 0;
  std::uint64_t handoffs = 0;  ///< accepted slots posted to another worker
};

/// Real sockets under the reactor: a nonblocking listener on worker 0
/// and one level-triggered epoll set per worker. Linux-only; constructing
/// it elsewhere throws.
class SocketTransport final : public Transport {
 public:
  /// Binds and listens; throws std::system_error when the port is taken.
  explicit SocketTransport(SocketTransportConfig cfg = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The bound listen port (useful with cfg.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] SocketTransportStats stats() const;
  /// When the listener accepted its first connection; nullopt before.
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  first_accept() const;

  void bind(Reactor& reactor) override;
  void stop() override;
  [[nodiscard]] bool reactor_paced() const override { return false; }
  void open(std::size_t slot, std::size_t conn_idx,
            std::uint64_t seed) override;
  IoStatus exchange(std::size_t slot, ServerConnection& conn) override;
  void on_close(std::size_t slot) override;
  void wait(std::size_t worker, std::vector<std::size_t>& ready) override;
  void wake(std::size_t worker) override;

 private:
  /// Per-slot socket state, owned by the slot's worker (the acceptor
  /// writes fd between claiming the slot and handing it over).
  struct FdSlot {
    int fd = -1;
    bool saw_eof = false;
    bool want_out = false;  // EPOLLOUT is in the fd's interest
    // Unsent remainder of the last take_output() chunk; kSendingFlight
    // holds in the connection until this drains (close-after-alert flushes
    // it before the fd closes).
    std::vector<std::uint8_t> stash;
    std::size_t stash_off = 0;
  };
  /// Per-worker epoll state, touched by that worker only.
  struct Poller {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd in the set; wake() writes it
    std::vector<std::uint8_t> buf;  // read buffer
    SocketTransportStats tally;     // counts since the last flush
  };

  void accept_one(Poller& p);
  void set_listen_interest(Poller& p, std::uint32_t events);
  void close_fd(std::size_t slot);
  void flush(SocketTransportStats& tally);

  SocketTransportConfig cfg_;
  Reactor* reactor_ = nullptr;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<FdSlot> fds_;
  std::vector<Poller> pollers_;

  // Free slots per owning worker. The listener pauses when all are empty,
  // and the next on_close resumes it — both under free_mu_, so a free
  // cannot race the pause.
  std::mutex free_mu_;
  std::vector<std::vector<std::size_t>> free_;
  bool accept_paused_ = false;

  // steady_clock ticks at the first accept; 0 until there is one. Written
  // once, by the acceptor.
  std::atomic<std::chrono::steady_clock::rep> first_accept_{0};
  mutable std::mutex stats_mu_;
  SocketTransportStats totals_;  // guarded by stats_mu_
};

/// The server stack (ServerStack) over real sockets (SocketTransport).
/// Splitting construction from run() exposes port() so an external client
/// fleet (or phissl_loadgen --serve) can aim at an ephemeral listener.
class SocketFrontend {
 public:
  SocketFrontend(const rsa::Engine& server_engine, const DriverConfig& cfg,
                 SocketTransportConfig transport_cfg = {});
  ~SocketFrontend();

  [[nodiscard]] std::uint16_t port() const;
  /// Serves cfg.num_handshakes connections, blocking until done. The
  /// report folds reactor outcomes, cache/batch counters, and the
  /// transport's accepts/eagain totals. Its wall_seconds (and so
  /// handshakes_per_s) runs from the first accepted connection to the last
  /// completion, however long the listener waited for a client before.
  DriverReport run();
  [[nodiscard]] SocketTransportStats transport_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Client-fleet knobs for run_load / phissl_loadgen. Mirrors the workload
/// shape half of ReactorConfig (seed, ratios, identity pool) plus the
/// client-side pacing knobs.
struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t total_connections = 0;
  /// Client connections open concurrently. Kept well under typical
  /// RLIMIT_NOFILE defaults; the server side bounds itself separately via
  /// max_open_connections.
  std::size_t concurrency = 256;
  /// Poisson arrivals at this rate (connections/s); 0 opens as fast as
  /// the concurrency window allows. Must be finite and non-negative.
  double arrival_rate_per_s = 0.0;
  std::uint64_t seed = 1;
  double resumption_ratio = 0.0;
  double dhe_ratio = 0.0;
  std::size_t identity_pool = 256;
};

/// Fleet outcome. `failed` includes connections the server shed (the
/// client sees an alert either way); the server-side DriverReport is the
/// authoritative shed/completed split.
struct LoadGenStats {
  std::size_t completed = 0;
  std::size_t failed = 0;
  util::Summary latency_us;  ///< connect-to-close, per connection
};

/// Runs cfg.total_connections ScriptedClients against host:port from one
/// epoll loop (nonblocking connect, LT readiness). public_engine needs
/// only the server's public key. Throws std::invalid_argument on a ratio
/// outside [0, 1] or a bad arrival rate.
LoadGenStats run_load(const rsa::Engine& public_engine,
                      const LoadGenConfig& cfg);

/// Socket counterpart of run_event_handshakes(): brings up a
/// SocketFrontend on an ephemeral loopback port and drives it with an
/// in-process run_load fleet (cfg.socket_clients wide). Called through
/// run_handshakes() when cfg.frontend == Frontend::kSocket.
DriverReport run_socket_handshakes(const rsa::Engine& server_engine,
                                   const DriverConfig& cfg);

}  // namespace phissl::ssl::async
