#include "ssl/async/transport.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "util/timing.hpp"

#ifdef __linux__
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace phissl::ssl::async {

// ---------------------------------------------------------------------------
// SimulatedTransport

SimulatedTransport::SimulatedTransport(const rsa::Engine& client_engine)
    : client_engine_(client_engine) {}

void SimulatedTransport::bind(Reactor& reactor) {
  // The reactor has already clamped identity_pool to at least 1.
  cfg_ = reactor.config();
  identities_.resize(cfg_.identity_pool);
  slots_.resize(reactor.slot_count());
  wakers_ = std::make_unique<Waker[]>(reactor.worker_count());
}

void SimulatedTransport::wait(std::size_t worker,
                              std::vector<std::size_t>& ready) {
  // No peer is ever "ready" here: exchange() runs each connection until
  // it settles or parks on its op, so a worker only waits for its inbox.
  (void)ready;
  Waker& wk = wakers_[worker];
  std::unique_lock<std::mutex> l(wk.mu);
  wk.cv.wait(l, [&] { return wk.woken; });
  wk.woken = false;
}

void SimulatedTransport::wake(std::size_t worker) {
  Waker& wk = wakers_[worker];
  std::lock_guard<std::mutex> l(wk.mu);
  wk.woken = true;
  wk.cv.notify_one();
}

void SimulatedTransport::open(std::size_t slot, std::size_t conn_idx,
                              std::uint64_t seed) {
  SimSlot& s = slots_[slot];
  s.identity = conn_idx % cfg_.identity_pool;
  const bool use_dhe =
      detail::coin(cfg_.seed, conn_idx, 0xd4e5, cfg_.dhe_ratio);
  std::optional<ResumableSession> resume;
  if (!use_dhe &&
      detail::coin(cfg_.seed, conn_idx, 0x5e55, cfg_.resumption_ratio)) {
    std::lock_guard<std::mutex> l(identities_mu_);
    resume = identities_[s.identity];  // may still be nullopt (cold)
  }
  s.client.emplace(client_engine_, detail::mix(seed), std::move(resume),
                   use_dhe);
  s.client->start();
}

IoStatus SimulatedTransport::exchange(std::size_t slot,
                                      ServerConnection& conn) {
  SimSlot& s = slots_[slot];
  if (!s.client.has_value()) return IoStatus::kPeerGone;
  ScriptedClient& client = *s.client;
  for (;;) {
    bool progressed = false;
    // Client -> server. take_output() drains fully: the simulated
    // transport never backpressures (partial reads/writes are covered by
    // the connection unit tests and the socket transport; this path
    // measures scheduling).
    if (auto bytes = client.take_output(); !bytes.empty()) {
      conn.on_input(bytes);
      progressed = true;
    }
    // Parked on a crypto step? The reactor owns submission.
    if (conn.has_pending_op()) return IoStatus::kOk;
    // Server -> client.
    if (auto bytes = conn.take_output(); !bytes.empty()) {
      client.on_server_bytes(bytes);
      progressed = true;
    }
    const bool client_settled = client.done() || client.failed();
    if (client_settled && client.output_pending() == 0 &&
        conn.output_pending() == 0) {
      return IoStatus::kSettled;
    }
    if (!progressed) {
      // No bytes moved, no op pending, nobody settled: a protocol-level
      // stall (state machine bug). Report the peer gone rather than hang
      // the reactor.
      return IoStatus::kPeerGone;
    }
  }
}

void SimulatedTransport::on_close(std::size_t slot) {
  SimSlot& s = slots_[slot];
  if (s.client.has_value() && s.client->done() && !s.client->resumed() &&
      s.client->has_resumable()) {
    // Bank the fresh session for this identity's next connection (DHE
    // sessions carry no resumable handle).
    std::lock_guard<std::mutex> l(identities_mu_);
    identities_[s.identity] = s.client->resumable();
  }
  s.client.reset();
}

#ifdef __linux__

namespace {

// epoll user-data tags for the two non-slot fds.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenTag = ~std::uint64_t{0} - 1;

// Loopback runs open a client fd per server fd; default soft limits
// (often 1024) are the first thing a 1k-connection run trips over.
void raise_nofile_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::SocketTransport(SocketTransportConfig cfg)
    : cfg_(std::move(cfg)) {
  raise_nofile_limit();
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("SocketTransport: socket");
  const auto fail = [this](const char* what) {
    const int err = errno;
    ::close(listen_fd_);
    errno = err;
    throw_errno(what);
  };
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Accepted sockets inherit TCP_NODELAY from the listener, which saves a
  // setsockopt per accept.
  ::setsockopt(listen_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::invalid_argument("SocketTransport: bad bind_addr");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    fail("SocketTransport: bind");
  }
  if (::listen(listen_fd_, cfg_.backlog) < 0) fail("SocketTransport: listen");
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
}

SocketTransport::~SocketTransport() {
  for (const FdSlot& fs : fds_) {
    if (fs.fd >= 0) ::close(fs.fd);
  }
  for (const Poller& p : pollers_) {
    if (p.epoll_fd >= 0) ::close(p.epoll_fd);
    if (p.wake_fd >= 0) ::close(p.wake_fd);
  }
  ::close(listen_fd_);
}

void SocketTransport::bind(Reactor& reactor) {
  reactor_ = &reactor;
  fds_.resize(reactor.slot_count());
  pollers_.resize(reactor.worker_count());
  free_.resize(reactor.worker_count());
  for (std::size_t s = reactor.slot_count(); s-- > 0;) {
    free_[reactor.owner(s)].push_back(s);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  for (Poller& p : pollers_) {
    p.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (p.epoll_fd < 0) throw_errno("SocketTransport: epoll_create1");
    p.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (p.wake_fd < 0) throw_errno("SocketTransport: eventfd");
    p.buf.resize(cfg_.read_chunk);
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(p.epoll_fd, EPOLL_CTL_ADD, p.wake_fd, &ev);
  }
  // Worker 0 is the acceptor.
  ev.data.u64 = kListenTag;
  ::epoll_ctl(pollers_[0].epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
}

void SocketTransport::stop() {
  for (Poller& p : pollers_) flush(p.tally);
}

std::optional<std::chrono::steady_clock::time_point>
SocketTransport::first_accept() const {
  const auto ticks = first_accept_.load(std::memory_order_acquire);
  if (ticks == 0) return std::nullopt;
  return std::chrono::steady_clock::time_point(
      std::chrono::steady_clock::duration(ticks));
}

SocketTransportStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> l(stats_mu_);
  return totals_;
}

void SocketTransport::flush(SocketTransportStats& t) {
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    totals_.accepts += t.accepts;
    totals_.eagain_reads += t.eagain_reads;
    totals_.eagain_writes += t.eagain_writes;
    totals_.resets += t.resets;
    totals_.wakeups += t.wakeups;
    totals_.events += t.events;
    totals_.interest_changes += t.interest_changes;
    totals_.handoffs += t.handoffs;
  }
  PHISSL_OBS_COUNT_NAMED("phissl_transport_accepts_total",
                         "connections accepted by the socket transport", "",
                         t.accepts);
  PHISSL_OBS_COUNT_NAMED(
      "phissl_transport_eagain_total",
      "send() cycles backpressured by a full socket buffer", "",
      t.eagain_writes);
  PHISSL_OBS_COUNT_NAMED("phissl_transport_resets_total",
                         "connections torn down by peer reset", "", t.resets);
  PHISSL_OBS_COUNT_NAMED("phissl_transport_wakeups_total",
                         "epoll_wait returns that delivered an event", "",
                         t.wakeups);
  PHISSL_OBS_COUNT_NAMED("phissl_transport_events_total",
                         "readiness events delivered by epoll_wait", "",
                         t.events);
  PHISSL_OBS_COUNT_NAMED("phissl_transport_interest_changes_total",
                         "EPOLL_CTL_MOD calls (EPOLLOUT or listener pause)",
                         "", t.interest_changes);
  PHISSL_OBS_COUNT_NAMED("phissl_transport_handoffs_total",
                         "accepted connections posted to another worker", "",
                         t.handoffs);
  t = {};
}

void SocketTransport::wait(std::size_t worker,
                           std::vector<std::size_t>& ready) {
  Poller& p = pollers_[worker];
  flush(p.tally);  // what the previous wakeup did
  std::array<epoll_event, 64> events;
  const int n = ::epoll_wait(p.epoll_fd, events.data(),
                             static_cast<int>(events.size()), -1);
  if (n <= 0) return;  // EINTR
  ++p.tally.wakeups;
  p.tally.events += static_cast<std::uint64_t>(n);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
    if (tag == kWakeTag) {
      // Consumed before the reactor drains the inbox, so a post landing
      // after the drain wakes the set again.
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(p.wake_fd, &count, sizeof(count));
    } else if (tag == kListenTag) {
      accept_one(p);
    } else {
      ready.push_back(static_cast<std::size_t>(tag));
    }
  }
}

void SocketTransport::wake(std::size_t worker) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(pollers_[worker].wake_fd, &one, sizeof(one));
}

void SocketTransport::set_listen_interest(Poller& p, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(pollers_[0].epoll_fd, EPOLL_CTL_MOD, listen_fd_, &ev);
  ++p.tally.interest_changes;
}

void SocketTransport::accept_one(Poller& p) {
  // Claim the slot BEFORE accepting: an accepted fd with nowhere to go
  // would have to be dropped (a reset the client would see as server
  // failure) or parked in a side queue. Claim-first means a full table
  // simply leaves arrivals in the backlog, listener paused. One accept per
  // readiness event: the level-triggered listener reports the rest.
  std::size_t slot = 0;
  {
    std::lock_guard<std::mutex> l(free_mu_);
    const auto most = std::max_element(
        free_.begin(), free_.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    if (most->empty()) {
      accept_paused_ = true;
      set_listen_interest(p, 0);  // on_close resumes it
      return;
    }
    slot = most->back();
    most->pop_back();
  }
  const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    // Nothing to accept after all (EAGAIN, ECONNABORTED): give it back.
    std::lock_guard<std::mutex> l(free_mu_);
    free_[reactor_->owner(slot)].push_back(slot);
    return;
  }
  if (cfg_.accepted_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.accepted_sndbuf,
                 sizeof(cfg_.accepted_sndbuf));
  }
  fds_[slot].fd = fd;
  if (first_accept_.load(std::memory_order_relaxed) == 0) {
    first_accept_.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_release);
  }
  ++p.tally.accepts;
  if (reactor_->accepted(slot)) ++p.tally.handoffs;
}

void SocketTransport::open(std::size_t slot, std::size_t conn_idx,
                           std::uint64_t seed) {
  (void)conn_idx;
  (void)seed;
  FdSlot& fs = fds_[slot];
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = slot;
  ::epoll_ctl(pollers_[reactor_->owner(slot)].epoll_fd, EPOLL_CTL_ADD, fs.fd,
              &ev);
}

void SocketTransport::close_fd(std::size_t slot) {
  FdSlot& fs = fds_[slot];
  if (fs.fd < 0) return;
  ::close(fs.fd);  // close drops the fd from the epoll set too
  fs = FdSlot{};
}

void SocketTransport::on_close(std::size_t slot) {
  close_fd(slot);
  const std::size_t w = reactor_->owner(slot);
  std::lock_guard<std::mutex> l(free_mu_);
  free_[w].push_back(slot);
  if (accept_paused_) {
    accept_paused_ = false;
    set_listen_interest(pollers_[w], EPOLLIN);
  }
}

IoStatus SocketTransport::exchange(std::size_t slot, ServerConnection& conn) {
  FdSlot& fs = fds_[slot];
  if (fs.fd < 0) return IoStatus::kPeerGone;  // already torn down
  Poller& p = pollers_[reactor_->owner(slot)];
  bool peer_gone = false;

  // Read until a short read: level-triggered interest reports whatever
  // arrives later, so reading on to EAGAIN would only add a recv that
  // finds nothing. on_input consumes everything it is fed (frames buffer
  // inside the connection), so readiness can never storm on unconsumed
  // input. Reading also proceeds while the connection is parked on a
  // crypto op — that is how a peer RST during kAwaitPrivateOp is noticed
  // immediately.
  for (;;) {
    const ssize_t n = ::recv(fs.fd, p.buf.data(), p.buf.size(), 0);
    if (n > 0) {
      conn.on_input(std::span<const std::uint8_t>(
          p.buf.data(), static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < p.buf.size()) break;
      continue;  // a full buffer: more may be queued
    }
    if (n == 0) {
      fs.saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ++p.tally.eagain_reads;
      break;
    }
    if (errno == EINTR) continue;
    peer_gone = true;  // ECONNRESET and friends
    break;
  }

  // Write: flush the stashed remainder of the previous chunk first, then
  // pull fresh output in read_chunk slices. A short send keeps the rest
  // stashed and turns EPOLLOUT on — kSendingFlight holds inside the
  // connection until the whole flight has really left.
  while (!peer_gone) {
    if (fs.stash_off >= fs.stash.size()) {
      fs.stash.clear();
      fs.stash_off = 0;
      if (conn.output_pending() == 0) break;
      fs.stash = conn.take_output(cfg_.read_chunk);
    }
    const ssize_t n = ::send(fs.fd, fs.stash.data() + fs.stash_off,
                             fs.stash.size() - fs.stash_off, MSG_NOSIGNAL);
    if (n >= 0) {
      fs.stash_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ++p.tally.eagain_writes;
      break;
    }
    if (errno == EINTR) continue;
    peer_gone = true;  // EPIPE / ECONNRESET
  }

  const bool flushed =
      fs.stash_off >= fs.stash.size() && conn.output_pending() == 0;
  if (conn.state() == ConnState::kClosed && flushed && !peer_gone) {
    // Orderly close: everything (a close-after-alert drain included) hit
    // the kernel buffer before the FIN goes out.
    close_fd(slot);
    return IoStatus::kSettled;
  }
  if (peer_gone || (fs.saw_eof && flushed && !conn.has_pending_op())) {
    // A reset, or the peer finished sending with nothing owed but the
    // connection didn't reach kClosed: a premature FIN (mid-handshake
    // hangup).
    ++p.tally.resets;
    close_fd(slot);
    return IoStatus::kPeerGone;
  }
  if (fs.want_out == flushed) {
    fs.want_out = !flushed;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (fs.want_out ? EPOLLOUT : 0u);
    ev.data.u64 = slot;
    ::epoll_ctl(p.epoll_fd, EPOLL_CTL_MOD, fs.fd, &ev);
    ++p.tally.interest_changes;
  }
  return IoStatus::kOk;
}

// ---------------------------------------------------------------------------
// SocketFrontend

struct SocketFrontend::Impl {
  SocketTransport transport;
  ServerStack stack;

  Impl(const rsa::Engine& engine, const DriverConfig& cfg,
       SocketTransportConfig transport_cfg)
      : transport(std::move(transport_cfg)), stack(engine, cfg, transport) {}
};

SocketFrontend::SocketFrontend(const rsa::Engine& server_engine,
                               const DriverConfig& cfg,
                               SocketTransportConfig transport_cfg)
    : impl_(std::make_unique<Impl>(server_engine, cfg,
                                   std::move(transport_cfg))) {}

SocketFrontend::~SocketFrontend() = default;

std::uint16_t SocketFrontend::port() const { return impl_->transport.port(); }

SocketTransportStats SocketFrontend::transport_stats() const {
  return impl_->transport.stats();
}

DriverReport SocketFrontend::run() {
  // run() follows the bind directly, and a separate load generator may
  // connect much later: the serving clock starts at the first accept.
  util::Stopwatch wall;
  const ReactorStats stats = impl_->stack.run();
  const auto first = impl_->transport.first_accept();
  const double wall_s =
      first ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            *first)
                  .count()
            : wall.elapsed_s();
  DriverReport report = impl_->stack.report(stats, wall_s);
  const SocketTransportStats ts = impl_->transport.stats();
  report.accepts = ts.accepts;
  report.eagain = ts.eagain_reads + ts.eagain_writes;
  report.io_wakeups = ts.wakeups;
  report.io_events = ts.events;
  report.interest_changes = ts.interest_changes;
  report.handoffs = ts.handoffs;
  return report;
}

// ---------------------------------------------------------------------------
// Client fleet

namespace {

using Clock = std::chrono::steady_clock;

struct ClientConn {
  std::optional<ScriptedClient> client;
  int fd = -1;
  std::size_t idx = 0;
  std::size_t identity = 0;
  bool connecting = true;
  bool want_out = true;
  std::vector<std::uint8_t> stash;
  std::size_t stash_off = 0;
  Clock::time_point started{};
};

}  // namespace

LoadGenStats run_load(const rsa::Engine& public_engine,
                      const LoadGenConfig& cfg) {
  if (!detail::valid_ratio(cfg.resumption_ratio) ||
      !detail::valid_ratio(cfg.dhe_ratio)) {
    throw std::invalid_argument("run_load: bad ratio");
  }
  if (!detail::valid_rate(cfg.arrival_rate_per_s)) {
    throw std::invalid_argument("run_load: bad arrival rate");
  }
  raise_nofile_limit();
  const std::size_t total = cfg.total_connections;
  const std::size_t window = std::max<std::size_t>(1, cfg.concurrency);
  const std::size_t identity_pool = std::max<std::size_t>(1, cfg.identity_pool);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("run_load: bad host (IPv4 literal expected)");
  }

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) throw_errno("run_load: epoll_create1");

  std::vector<ClientConn> conns(window);
  std::vector<std::size_t> free_slots;
  free_slots.reserve(window);
  for (std::size_t i = window; i-- > 0;) free_slots.push_back(i);
  std::vector<std::optional<ResumableSession>> identities(identity_pool);

  LoadGenStats stats;
  std::vector<double> latencies;
  latencies.reserve(total);
  std::size_t opened = 0;
  std::size_t settled = 0;

  // Poisson arrivals: exponential inter-arrival gaps at the target rate.
  std::mt19937_64 arrivals_rng(detail::mix(cfg.seed ^ 0xa881'4a11ULL));
  std::exponential_distribution<double> gap_s(
      cfg.arrival_rate_per_s > 0.0 ? cfg.arrival_rate_per_s : 1.0);
  Clock::time_point next_arrival = Clock::now();

  const auto set_interest = [&](std::size_t slot, bool want_out) {
    ClientConn& c = conns[slot];
    if (c.want_out == want_out) return;
    c.want_out = want_out;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = slot;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
  };

  const auto teardown = [&](std::size_t slot, bool completed) {
    ClientConn& c = conns[slot];
    if (completed) {
      ++stats.completed;
      latencies.push_back(std::chrono::duration<double, std::micro>(
                              Clock::now() - c.started)
                              .count());
      if (c.client->done() && !c.client->resumed() &&
          c.client->has_resumable()) {
        identities[c.identity] = c.client->resumable();
      }
    } else {
      ++stats.failed;
    }
    ::close(c.fd);
    c.fd = -1;
    c.client.reset();
    c.stash.clear();
    c.stash_off = 0;
    ++settled;
    free_slots.push_back(slot);
  };

  // Pump one client as far as it goes; returns false if it settled.
  const auto pump = [&](std::size_t slot) {
    ClientConn& c = conns[slot];
    if (c.fd < 0) return;  // stale event
    if (c.connecting) {
      int err = 0;
      socklen_t elen = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
      if (err == EINPROGRESS || err == EALREADY) return;
      if (err != 0) {
        teardown(slot, /*completed=*/false);
        return;
      }
      c.connecting = false;
    }
    // Read whatever the server sent.
    std::array<std::uint8_t, 16 * 1024> buf;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n > 0) {
        c.client->on_server_bytes(std::span<const std::uint8_t>(
            buf.data(), static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) {
        // Server FIN. Fine after done (we close momentarily anyway);
        // premature otherwise.
        if (!c.client->done()) {
          teardown(slot, /*completed=*/false);
          return;
        }
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      teardown(slot, /*completed=*/false);
      return;
    }
    if (c.client->failed()) {
      // Alert (shed or protocol failure): the server-side report is the
      // authoritative split; the fleet just counts it failed.
      teardown(slot, /*completed=*/false);
      return;
    }
    // Write queued output.
    for (;;) {
      if (c.stash_off >= c.stash.size()) {
        c.stash.clear();
        c.stash_off = 0;
        if (c.client->output_pending() == 0) break;
        c.stash = c.client->take_output();
      }
      const ssize_t n = ::send(c.fd, c.stash.data() + c.stash_off,
                               c.stash.size() - c.stash_off, MSG_NOSIGNAL);
      if (n >= 0) {
        c.stash_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      teardown(slot, /*completed=*/false);
      return;
    }
    const bool flushed =
        c.stash_off >= c.stash.size() && c.client->output_pending() == 0;
    if (c.client->done() && flushed) {
      teardown(slot, /*completed=*/true);
      return;
    }
    set_interest(slot, !flushed);
  };

  const auto open_one = [&]() -> bool {
    const std::size_t slot = free_slots.back();
    ClientConn& c = conns[slot];
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;  // fd pressure: retry after some close
    free_slots.pop_back();
    c.fd = fd;
    c.idx = opened++;
    c.identity = c.idx % identity_pool;
    c.connecting = true;
    c.want_out = true;
    c.started = Clock::now();
    const bool use_dhe =
        detail::coin(cfg.seed, c.idx, 0xd4e5, cfg.dhe_ratio);
    std::optional<ResumableSession> resume;
    if (!use_dhe &&
        detail::coin(cfg.seed, c.idx, 0x5e55, cfg.resumption_ratio)) {
      resume = identities[c.identity];
    }
    const std::uint64_t seed = detail::mix(cfg.seed) ^ detail::mix(c.idx + 1);
    c.client.emplace(public_engine, detail::mix(seed), std::move(resume),
                     use_dhe);
    c.client->start();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
    ev.data.u64 = slot;
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      c.connecting = false;
    } else if (errno != EINPROGRESS) {
      teardown(slot, /*completed=*/false);
      return true;
    }
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    return true;
  };

  std::array<epoll_event, 64> events;
  while (settled < total) {
    // Admit arrivals the schedule and the window allow.
    const Clock::time_point now = Clock::now();
    while (opened < total && !free_slots.empty() &&
           (cfg.arrival_rate_per_s <= 0.0 || now >= next_arrival)) {
      if (!open_one()) break;
      if (cfg.arrival_rate_per_s > 0.0) {
        next_arrival += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap_s(arrivals_rng)));
      }
    }
    int timeout_ms = -1;
    if (cfg.arrival_rate_per_s > 0.0 && opened < total &&
        !free_slots.empty()) {
      const auto wait = next_arrival - Clock::now();
      timeout_ms = std::max<int>(
          1, static_cast<int>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(wait)
                     .count()));
    }
    const int n = ::epoll_wait(ep, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      pump(static_cast<std::size_t>(events[i].data.u64));
    }
  }
  ::close(ep);
  stats.latency_us = util::summarize(std::move(latencies));
  return stats;
}

// ---------------------------------------------------------------------------
// Socket frontend driver entry

DriverReport run_socket_handshakes(const rsa::Engine& server_engine,
                                   const DriverConfig& cfg) {
  SocketFrontend frontend(server_engine, cfg);

  const rsa::Engine public_engine(server_engine.pub(),
                                  server_engine.options());
  LoadGenConfig lg;
  lg.host = "127.0.0.1";
  lg.port = frontend.port();
  lg.total_connections = cfg.num_handshakes;
  lg.concurrency = std::max<std::size_t>(1, cfg.socket_clients);
  lg.arrival_rate_per_s = cfg.socket_arrival_per_s;
  lg.seed = cfg.seed;
  lg.resumption_ratio = cfg.resumption_ratio;
  lg.dhe_ratio = cfg.event_dhe_ratio;
  lg.identity_pool = identity_pool_for(cfg.num_handshakes);

  // The fleet runs in-process but over real loopback sockets; its thread
  // is NOT one of the reactor workers, exactly as an external loadgen
  // process would not be.
  LoadGenStats client_stats;
  std::thread fleet(
      [&] { client_stats = run_load(public_engine, lg); });
  DriverReport report = frontend.run();
  fleet.join();
  return report;
}

#else  // !__linux__

SocketTransport::SocketTransport(SocketTransportConfig cfg)
    : cfg_(std::move(cfg)) {
  throw std::runtime_error("SocketTransport: epoll transport is linux-only");
}
SocketTransport::~SocketTransport() = default;
void SocketTransport::bind(Reactor&) {}
void SocketTransport::stop() {}
SocketTransportStats SocketTransport::stats() const { return {}; }
std::optional<std::chrono::steady_clock::time_point>
SocketTransport::first_accept() const {
  return std::nullopt;
}
void SocketTransport::open(std::size_t, std::size_t, std::uint64_t) {}
IoStatus SocketTransport::exchange(std::size_t, ServerConnection&) {
  return IoStatus::kPeerGone;
}
void SocketTransport::on_close(std::size_t) {}
void SocketTransport::wait(std::size_t, std::vector<std::size_t>&) {}
void SocketTransport::wake(std::size_t) {}

struct SocketFrontend::Impl {};
SocketFrontend::SocketFrontend(const rsa::Engine&, const DriverConfig&,
                               SocketTransportConfig) {
  throw std::runtime_error("SocketFrontend: epoll transport is linux-only");
}
SocketFrontend::~SocketFrontend() = default;
std::uint16_t SocketFrontend::port() const { return 0; }
SocketTransportStats SocketFrontend::transport_stats() const { return {}; }
DriverReport SocketFrontend::run() { return {}; }

LoadGenStats run_load(const rsa::Engine&, const LoadGenConfig&) {
  throw std::runtime_error("run_load: epoll client fleet is linux-only");
}
DriverReport run_socket_handshakes(const rsa::Engine&, const DriverConfig&) {
  throw std::runtime_error(
      "run_socket_handshakes: epoll transport is linux-only");
}

#endif  // __linux__

}  // namespace phissl::ssl::async
