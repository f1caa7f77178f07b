// Socket-transport integration tests: the epoll frontend
// (ssl/async/transport.hpp) against real loopback sockets driven by raw
// client fds — byte-at-a-time writes through the frame reader, server
// flights split across EAGAIN by a shrunken send buffer, a peer RST
// landing while the connection is parked on its batched private op (the
// zombie-slot path: the slot must recycle, the stale batch result be
// discarded and its admission slot released), FIN-vs-alert close
// ordering (a protocol failure must reach the client as an alert then a
// clean EOF, not a reset), a serving clock that starts at the first
// accept rather than at listen, the per-wakeup I/O counters, a full slot
// table pausing and resuming the acceptor, more workers than slots, a
// 16-byte read buffer, a taken port, and a 512-connection churn through
// the full socket driver path. Suite names start with AsyncSocket so the
// CI TSan leg picks them up.
#ifdef __linux__

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "rsa/key.hpp"
#include "ssl/async/admission.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/reactor.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/async/wire.hpp"
#include "ssl/batch_decrypt.hpp"
#include "ssl/driver.hpp"
#include "ssl/session_cache.hpp"

namespace phissl::ssl::async {
namespace {

rsa::EngineOptions test_opts() { return rsa::EngineOptions{}; }

// Blocking loopback connect to the frontend's ephemeral port.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

void write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

// Reads whatever arrives within timeout_ms (one poll round).
std::vector<std::uint8_t> read_some(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return {};
  std::vector<std::uint8_t> buf(64 * 1024);
  const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
  if (n <= 0) return {};
  buf.resize(static_cast<std::size_t>(n));
  return buf;
}

// Drives a ScriptedClient over a blocking fd until it settles (or the
// deadline passes). write_chunk = 1 exercises byte-at-a-time writes.
void pump_client(int fd, ScriptedClient& client, std::size_t write_chunk,
                 int read_delay_ms = 0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!client.done() && !client.failed() &&
         std::chrono::steady_clock::now() < deadline) {
    const auto out = client.take_output();
    for (std::size_t off = 0; off < out.size(); off += write_chunk) {
      const std::size_t n = std::min(write_chunk, out.size() - off);
      write_all(fd, std::span<const std::uint8_t>(out.data() + off, n));
    }
    if (read_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(read_delay_ms));
    }
    const auto in = read_some(fd, 50);
    if (!in.empty()) client.on_server_bytes(in);
  }
  // Flush anything the settle step queued (the kClose frame).
  const auto out = client.take_output();
  if (!out.empty()) write_all(fd, out);
}

TEST(AsyncSocketTest, ByteAtATimeClientWritesTerminate) {
  const rsa::Engine engine(rsa::test_key(512), test_opts());
  DriverConfig cfg;
  cfg.frontend = Frontend::kSocket;
  cfg.num_handshakes = 1;
  cfg.event_workers = 2;
  SocketFrontend frontend(engine, cfg);

  DriverReport report;
  std::thread server([&] { report = frontend.run(); });

  const int fd = connect_loopback(frontend.port());
  const rsa::Engine pub(rsa::test_key(512).pub, test_opts());
  ScriptedClient client(pub, 7);
  client.start();
  pump_client(fd, client, /*write_chunk=*/1);
  ::close(fd);
  server.join();

  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.accepts, 1u);
}

TEST(AsyncSocketTest, ServerFlightSplitsAcrossEagain) {
  const rsa::Engine engine(rsa::test_key(512), test_opts());
  DriverConfig cfg;
  cfg.frontend = Frontend::kSocket;
  cfg.num_handshakes = 1;
  cfg.event_workers = 2;
  // Shrink the accepted socket's send buffer (the kernel floors it around
  // a few KiB) and make the echo payload 256 KiB: the server's echo
  // flight cannot possibly fit, so send() must hit EAGAIN and the flight
  // must finish across multiple readiness cycles.
  SocketTransportConfig tcfg;
  tcfg.accepted_sndbuf = 4096;
  SocketFrontend frontend(engine, cfg, tcfg);

  DriverReport report;
  std::thread server([&] { report = frontend.run(); });

  const int fd = connect_loopback(frontend.port());
  const rsa::Engine pub(rsa::test_key(512).pub, test_opts());
  ScriptedClient client(pub, 9);
  client.set_ping_size(256 * 1024);
  client.start();
  // A small read delay keeps the client from draining the wire as fast
  // as the server fills it, guaranteeing backpressure.
  pump_client(fd, client, /*write_chunk=*/4096, /*read_delay_ms=*/2);
  ::close(fd);
  server.join();

  // done() implies the client verified the full 256 KiB echo byte-exact —
  // the split flight reassembled correctly.
  EXPECT_TRUE(client.done());
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.failed, 0u);
  const SocketTransportStats stats = frontend.transport_stats();
  EXPECT_GT(stats.eagain_writes, 0u);
  // EPOLLOUT went on for the backpressured flight.
  EXPECT_GE(stats.interest_changes, 1u);
}

TEST(AsyncSocketTest, ClientRstDuringAwaitPrivateOpRecyclesSlot) {
  const rsa::Engine engine(rsa::test_key(512), test_opts());
  DriverConfig cfg;
  cfg.frontend = Frontend::kSocket;
  cfg.num_handshakes = 1;
  cfg.event_workers = 2;
  // A long linger guarantees the connection is still parked in
  // kAwaitPrivateOp (its single-lane batch is waiting for lanemates that
  // never come) when the RST lands. The reactor must note the peer loss
  // immediately, hold the slot as a zombie until the batch completes,
  // then discard the stale result and finish the run — not hang, and not
  // resume a recycled connection with another connection's result.
  cfg.batch_linger = std::chrono::microseconds(1'000'000);
  SocketTransport transport;
  ServerStack stack(engine, cfg, transport);

  ReactorStats stats;
  std::thread server([&] { stats = stack.run(); });

  const int fd = connect_loopback(transport.port());
  const rsa::Engine pub(rsa::test_key(512).pub, test_opts());
  ScriptedClient client(pub, 11);
  client.start();
  // Drive through ClientKeyExchange + Finished: write the hello, collect
  // the server flight, write the client's second flight.
  {
    const auto hello = client.take_output();
    write_all(fd, hello);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client.output_pending() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      const auto in = read_some(fd, 50);
      if (!in.empty()) client.on_server_bytes(in);
    }
    ASSERT_GT(client.output_pending(), 0u) << "no second client flight";
    write_all(fd, client.take_output());
  }
  // Give the server time to consume the Finished and park on the op,
  // then reset the connection: SO_LINGER{on, 0} turns close() into RST.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);

  server.join();  // must return once the lingering batch resolves

  const DriverReport report = stack.report(stats, 0.0);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.resets, 1u);
  EXPECT_GE(transport.stats().resets, 1u);
  // The zombie's completion released the op's admission slot.
  EXPECT_EQ(stack.admission().pending(), 0u);
}

TEST(AsyncSocketTest, ProtocolFailureAlertsThenFinsCleanly) {
  const rsa::Engine engine(rsa::test_key(512), test_opts());
  DriverConfig cfg;
  cfg.frontend = Frontend::kSocket;
  cfg.num_handshakes = 1;
  cfg.event_workers = 2;
  SocketFrontend frontend(engine, cfg);

  DriverReport report;
  std::thread server([&] { report = frontend.run(); });

  const int fd = connect_loopback(frontend.port());
  // An unknown frame type in kReadingClientHello is a protocol failure:
  // the server must flush an alert frame and only then FIN — the client
  // sees alert bytes followed by a CLEAN EOF, never ECONNRESET.
  const std::uint8_t garbage[4] = {200, 0, 0, 0};
  write_all(fd, garbage);

  std::vector<std::uint8_t> got;
  bool clean_eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    std::uint8_t buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      got.insert(got.end(), buf, buf + n);
      continue;
    }
    EXPECT_EQ(n, 0) << "reset instead of FIN: " << std::strerror(errno);
    clean_eof = (n == 0);
    break;
  }
  ::close(fd);
  server.join();

  EXPECT_TRUE(clean_eof);
  ASSERT_GE(got.size(), 4u);  // [kAlert][len:3] at minimum
  EXPECT_EQ(static_cast<MsgType>(got[0]), MsgType::kAlert);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.resets, 0u);  // orderly (if unhappy) close, not a reset
  EXPECT_EQ(frontend.transport_stats().resets, 0u);
}

TEST(AsyncSocketTest, ServingClockStartsAtFirstAccept) {
  // A separate load generator may connect long after the listener is up
  // (phissl_loadgen --serve): the time before the first connection is not
  // serving time, so it must not dilute the reported handshakes/s.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine engine(key, test_opts());
  DriverConfig cfg;
  cfg.num_handshakes = 8;
  cfg.event_workers = 2;
  SocketFrontend frontend(engine, cfg);
  const auto idle = std::chrono::milliseconds(400);
  const auto t0 = std::chrono::steady_clock::now();
  DriverReport report;
  std::thread server([&] { report = frontend.run(); });
  std::this_thread::sleep_for(idle);  // the client connects late
  const rsa::Engine client_engine(key.pub, test_opts());
  LoadGenConfig lg;
  lg.port = frontend.port();
  lg.total_connections = cfg.num_handshakes;
  lg.concurrency = 4;
  const LoadGenStats client = run_load(client_engine, lg);
  server.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_EQ(client.completed, cfg.num_handshakes);
  EXPECT_EQ(report.completed, cfg.num_handshakes);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_LT(report.wall_seconds,
            elapsed_s - 0.75 * std::chrono::duration<double>(idle).count());
  EXPECT_DOUBLE_EQ(report.handshakes_per_s,
                   static_cast<double>(report.completed) / report.wall_seconds);
}

TEST(AsyncSocketTest, DefaultSendBufferNeedsNoInterestChanges) {
  // Level-triggered interest is set once at open: with the default send
  // buffer no flight backpressures, so no EPOLL_CTL_MOD runs at all. The
  // per-wakeup counters reach both the stats and the scrape.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine engine(key, test_opts());
  DriverConfig cfg;
  cfg.num_handshakes = 32;
  cfg.event_workers = 2;
  SocketFrontend frontend(engine, cfg);
  DriverReport report;
  std::thread server([&] { report = frontend.run(); });
  const rsa::Engine client_engine(key.pub, test_opts());
  LoadGenConfig lg;
  lg.port = frontend.port();
  lg.total_connections = cfg.num_handshakes;
  lg.concurrency = 4;
  lg.resumption_ratio = 0.5;
  const LoadGenStats client = run_load(client_engine, lg);
  server.join();

  EXPECT_EQ(client.completed, cfg.num_handshakes);
  EXPECT_EQ(report.completed, cfg.num_handshakes);
  const SocketTransportStats stats = frontend.transport_stats();
  EXPECT_EQ(stats.accepts, cfg.num_handshakes);
  EXPECT_EQ(stats.interest_changes, 0u);
  EXPECT_GT(stats.wakeups, 0u);
  EXPECT_GE(stats.events, stats.wakeups);
  EXPECT_LE(stats.handoffs, stats.accepts);
  EXPECT_EQ(report.io_wakeups, stats.wakeups);
  EXPECT_EQ(report.io_events, stats.events);
  EXPECT_EQ(report.interest_changes, 0u);
  EXPECT_EQ(report.handoffs, stats.handoffs);
  std::ostringstream scrape;
  obs::render_prometheus(scrape);
  for (const char* name :
       {"phissl_transport_wakeups_total", "phissl_transport_events_total",
        "phissl_transport_interest_changes_total",
        "phissl_transport_handoffs_total"}) {
    EXPECT_NE(scrape.str().find(name), std::string::npos) << name;
  }
}

TEST(AsyncSocketTest, FullSlotTablePausesAndResumesAccepting) {
  // 64 clients against 3 slots: the acceptor finds the table full, pauses
  // the listener, and every freed slot must resume it. A lost resume
  // shows up as a hang.
  const rsa::Engine engine(rsa::test_key(512), test_opts());
  DriverConfig cfg;
  cfg.frontend = Frontend::kSocket;
  cfg.num_handshakes = 256;
  cfg.event_workers = 2;
  cfg.max_open_connections = 3;
  cfg.socket_clients = 64;
  cfg.resumption_ratio = 0.5;
  const DriverReport r = run_handshakes(engine, cfg);

  EXPECT_EQ(r.completed, 256u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.resets, 0u);
  EXPECT_EQ(r.accepts, 256u);
  EXPECT_GT(r.interest_changes, 0u);  // the listener paused at least once
}

TEST(AsyncSocketTest, FewerSlotsThanWorkersStillServes) {
  // 4 workers asked for, 2 slots: only the workers that own a slot run,
  // so no connection can be handed to a worker without one.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine engine(key, test_opts());
  BatchDecryptService svc(engine.priv(),
                          BatchDecryptConfig{.dispatch_threads = 1});
  SessionCache cache(SessionCacheConfig{});
  AdmissionController admission;
  SocketTransport transport;
  Reactor reactor(engine, &svc, cache, admission, nullptr, transport,
                  ReactorConfig{.workers = 4,
                                .max_open_connections = 2,
                                .total_connections = 64});
  ASSERT_EQ(reactor.slot_count(), 2u);
  ASSERT_EQ(reactor.worker_count(), 2u);

  ReactorStats stats;
  std::thread server([&] { stats = reactor.run(); });
  const rsa::Engine client_engine(key.pub, test_opts());
  LoadGenConfig lg;
  lg.port = transport.port();
  lg.total_connections = 64;
  lg.concurrency = 8;
  const LoadGenStats client = run_load(client_engine, lg);
  server.join();

  EXPECT_EQ(client.completed, 64u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.failed, 0u);
  const SocketTransportStats ts = transport.stats();
  EXPECT_EQ(ts.accepts, 64u);
  // Slot 0 is worker 0's own: the first accept (a tie) starts inline.
  EXPECT_LT(ts.handoffs, ts.accepts);
}

TEST(AsyncSocketTest, TinyReadChunkStillTerminates) {
  // A 16-byte read buffer fills on almost every recv, so the transport
  // must keep reading after a full chunk (and only stop at a short read)
  // to see a whole flight. Sends go out in 16-byte slices too.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine engine(key, test_opts());
  DriverConfig cfg;
  cfg.num_handshakes = 2;
  cfg.event_workers = 2;
  SocketTransportConfig tcfg;
  tcfg.read_chunk = 16;
  SocketFrontend frontend(engine, cfg, tcfg);
  DriverReport report;
  std::thread server([&] { report = frontend.run(); });

  const rsa::Engine pub(key.pub, test_opts());
  ScriptedClient full(pub, 21);
  full.start();
  const int fd1 = connect_loopback(frontend.port());
  pump_client(fd1, full, /*write_chunk=*/4096);
  ::close(fd1);
  ASSERT_TRUE(full.done());
  ASSERT_TRUE(full.has_resumable());

  ScriptedClient resumed(pub, 22, full.resumable(), /*use_dhe=*/false);
  resumed.start();
  const int fd2 = connect_loopback(frontend.port());
  pump_client(fd2, resumed, /*write_chunk=*/4096);
  ::close(fd2);
  server.join();

  // done() implies each client checked its echo byte-exact.
  EXPECT_FALSE(full.resumed());
  EXPECT_TRUE(resumed.done());
  EXPECT_TRUE(resumed.resumed());
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.resumed, 1u);
  EXPECT_EQ(report.failed, 0u);
}

TEST(AsyncSocketTest, SecondListenerOnSamePortThrows) {
  // Without SO_REUSEPORT a second server on a taken --port fails loudly
  // instead of silently splitting the traffic with the first.
  const SocketTransport first;
  SocketTransportConfig cfg;
  cfg.port = first.port();
  EXPECT_THROW(SocketTransport second(cfg), std::system_error);
}

TEST(AsyncSocketChurn, Churn512ConnectionsOver2Workers) {
  // The full socket driver path — epoll frontend plus the in-process
  // client fleet — at enough volume that slots recycle many times and
  // resumed handshakes interleave with full ones. No wall-clock
  // assertions, so the TSan leg can run it under instrumentation.
  const rsa::Engine engine(rsa::test_key(512), test_opts());
  DriverConfig cfg;
  cfg.frontend = Frontend::kSocket;
  cfg.num_handshakes = 512;
  cfg.event_workers = 2;
  cfg.max_open_connections = 128;
  cfg.socket_clients = 64;
  cfg.resumption_ratio = 0.5;
  const DriverReport r = run_handshakes(engine, cfg);

  EXPECT_EQ(r.completed, 512u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.accepts, 512u);
  EXPECT_GT(r.resumed, 0u);
  // One private op per full handshake, each in a batch lane or
  // single-stream.
  EXPECT_EQ(r.service_requests, r.completed - r.resumed);
  EXPECT_EQ(r.lanes_signed + r.single_ops, r.service_requests);
  EXPECT_EQ(r.padded_lanes, r.batches * 16 - r.lanes_signed);
}

}  // namespace
}  // namespace phissl::ssl::async

#endif  // __linux__
