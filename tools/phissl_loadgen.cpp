// phissl_loadgen: nonblocking TLS-terminator load generator over real
// loopback/LAN sockets — the client half of the epoll socket transport
// (ssl/async/transport.hpp), packaged standalone.
//
//   phissl_loadgen --connect HOST:PORT -n N [client knobs]
//   phissl_loadgen --serve [server knobs]         (runs until N served)
//   phissl_loadgen --self N [both sides' knobs]   (in-process smoke)
//
// --connect drives N ScriptedClient handshakes (each: full or resumed
// handshake, one protected echo, orderly close) against an already
// running socket frontend from a single epoll loop. --serve brings the
// frontend up and prints the bound port, so two processes — or two hosts
// — can split the roles. --self wires both halves in one process over an
// ephemeral loopback port and then ASSERTS the run looks sane (nonzero
// completions, every private op accounted for in a batch lane or
// single-stream, no shed without an admission cap and nonzero shed with
// one), exiting nonzero otherwise; CI uses it as the socket-path smoke,
// and runs --serve and --connect as two processes besides.
//
// Every knob fills the one DriverConfig both halves read, and the clients
// draw their mix from it exactly as the simulated transport does
// (ClientMix), so a loadgen run reproduces the bench sweep mixes. Client
// knobs: --clients (concurrency window), --rate (Poisson arrivals/s, 0 =
// open as fast as the window allows), --resumption / --dhe
// (per-connection coin ratios), --seed. Server knobs: --workers,
// --max-open, --max-pending (admission cap), --port, --backend
// (Montgomery backend of both the batched private-op path and the
// engine: knc_vec | ifma52 | ifma52-portable, default ifma52). Both:
// --bits (test key size; the two sides of a split run need the same).
//
// Exit 0 on success, 1 on a failed run/assertion, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "rsa/backend.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/driver.hpp"

namespace {

using namespace phissl;

int usage() {
  std::fprintf(
      stderr,
      "usage: phissl_loadgen --connect HOST:PORT -n N [--clients C]\n"
      "                      [--rate R] [--resumption X] [--dhe X]\n"
      "                      [--seed S] [--bits B]\n"
      "       phissl_loadgen --serve -n N [--port P] [--workers W]\n"
      "                      [--max-open M] [--max-pending K] [--bits B]\n"
      "                      [--backend knc_vec|ifma52|ifma52-portable]\n"
      "       phissl_loadgen --self N [any of the above knobs]\n");
  return 2;
}

double parse_double(const char* s) { return std::strtod(s, nullptr); }
std::size_t parse_size(const char* s) {
  return static_cast<std::size_t>(std::strtoull(s, nullptr, 10));
}

void print_client_stats(const ssl::async::LoadGenStats& s) {
  std::printf("client: completed %zu  failed %zu  p50 %.0fus  p99 %.0fus\n",
              s.completed, s.failed, s.latency_us.median, s.latency_us.p99);
}

void print_report(const ssl::DriverReport& r) {
  std::printf(
      "server: completed %zu  failed %zu  shed %zu  resumed %zu\n"
      "        hs/s %.1f  p50 %.0fus  p99 %.0fus\n"
      "        lane occupancy %.2f  batches %llu  single ops %llu"
      "  res/wakeup %.1f\n"
      "        accepts %llu  eagain %llu  resets %llu\n"
      "        epoll wakeups %llu  events %llu  interest changes %llu"
      "  hand-offs %llu\n",
      r.completed, r.failed, static_cast<std::size_t>(r.shed), r.resumed,
      r.handshakes_per_s, r.latency_us.median, r.latency_us.p99,
      r.batch_lane_occupancy, static_cast<unsigned long long>(r.batches),
      static_cast<unsigned long long>(r.single_ops),
      r.resumptions_per_wakeup, static_cast<unsigned long long>(r.accepts),
      static_cast<unsigned long long>(r.eagain),
      static_cast<unsigned long long>(r.resets),
      static_cast<unsigned long long>(r.io_wakeups),
      static_cast<unsigned long long>(r.io_events),
      static_cast<unsigned long long>(r.interest_changes),
      static_cast<unsigned long long>(r.handoffs));
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kConnect, kServe, kSelf };
  Mode mode = Mode::kNone;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t total = 0;
  std::size_t clients = 256;
  double rate = 0.0;
  double resumption = 0.0;
  double dhe = 0.0;
  std::uint64_t seed = 1;
  std::size_t bits = 2048;
  std::size_t workers = 2;
  std::size_t max_open = 1024;
  std::size_t max_pending = 0;
  rsa::Backend backend = rsa::Backend::kIfma52;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (std::strcmp(a, "--connect") == 0) {
      const char* hp = next();
      if (hp == nullptr) return usage();
      const char* colon = std::strrchr(hp, ':');
      if (colon == nullptr) return usage();
      host.assign(hp, static_cast<std::size_t>(colon - hp));
      port = static_cast<std::uint16_t>(std::strtoul(colon + 1, nullptr, 10));
      mode = Mode::kConnect;
    } else if (std::strcmp(a, "--serve") == 0) {
      mode = Mode::kServe;
    } else if (std::strcmp(a, "--self") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      total = parse_size(n);
      mode = Mode::kSelf;
    } else if (std::strcmp(a, "-n") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      total = parse_size(n);
    } else if (std::strcmp(a, "--clients") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      clients = parse_size(n);
    } else if (std::strcmp(a, "--rate") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      rate = parse_double(n);
    } else if (std::strcmp(a, "--resumption") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      resumption = parse_double(n);
    } else if (std::strcmp(a, "--dhe") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      dhe = parse_double(n);
    } else if (std::strcmp(a, "--seed") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      seed = std::strtoull(n, nullptr, 10);
    } else if (std::strcmp(a, "--bits") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      bits = parse_size(n);
    } else if (std::strcmp(a, "--port") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      port = static_cast<std::uint16_t>(std::strtoul(n, nullptr, 10));
    } else if (std::strcmp(a, "--workers") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      workers = parse_size(n);
    } else if (std::strcmp(a, "--max-open") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      max_open = parse_size(n);
    } else if (std::strcmp(a, "--max-pending") == 0) {
      const char* n = next();
      if (n == nullptr) return usage();
      max_pending = parse_size(n);
    } else if (std::strcmp(a, "--backend") == 0) {
      const char* n = next();
      const auto b = n == nullptr ? std::nullopt : rsa::backend_from_string(n);
      if (!b || !rsa::has_batch_form(*b)) return usage();
      backend = *b;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a);
      return usage();
    }
  }
  if (mode == Mode::kNone || total == 0) return usage();

  const rsa::PrivateKey& key = rsa::test_key(bits);
  const rsa::Engine server_engine(key, rsa::EngineOptions{.kernel = backend});

  ssl::DriverConfig cfg;
  cfg.frontend = ssl::Frontend::kSocket;
  cfg.batch_backend = backend;
  cfg.num_handshakes = total;
  cfg.event_workers = workers;
  cfg.max_open_connections = max_open;
  cfg.event_dhe_ratio = dhe;
  cfg.resumption_ratio = resumption;
  cfg.max_pending_ops = max_pending;
  cfg.seed = seed;
  cfg.socket_clients = clients;
  cfg.socket_arrival_per_s = rate;

  try {
    switch (mode) {
      case Mode::kConnect: {
        const rsa::Engine public_engine(key.pub, server_engine.options());
        const auto stats =
            ssl::async::run_load(public_engine, cfg, port, host);
        print_client_stats(stats);
        return stats.failed == 0 ? 0 : 1;
      }
      case Mode::kServe: {
        ssl::async::SocketTransportConfig tcfg;
        tcfg.port = port;
        ssl::async::SocketFrontend frontend(server_engine, cfg, tcfg);
        std::printf("listening on %s:%u (RSA-%zu test key), serving %zu\n",
                    tcfg.bind_addr.c_str(), frontend.port(), bits, total);
        std::fflush(stdout);
        const ssl::DriverReport r = frontend.run();
        print_report(r);
        return r.failed == 0 ? 0 : 1;
      }
      case Mode::kSelf: {
        const ssl::DriverReport r = ssl::run_handshakes(server_engine, cfg);
        print_report(r);
        // Smoke assertions: the run must have actually terminated
        // connections through real sockets and fed the batch service —
        // every private op in a batch lane or single-stream — and shed
        // exactly when an admission cap was set.
        bool ok = true;
        if (r.completed == 0) {
          std::fprintf(stderr, "FAIL: no connections completed\n");
          ok = false;
        }
        if (r.completed + r.shed + r.failed != total) {
          std::fprintf(stderr, "FAIL: outcomes don't sum to %zu\n", total);
          ok = false;
        }
        if (r.failed != 0) {
          std::fprintf(stderr, "FAIL: %zu connections failed\n", r.failed);
          ok = false;
        }
        if (r.accepts < r.completed) {
          std::fprintf(stderr, "FAIL: accepts below completions\n");
          ok = false;
        }
        if (r.service_requests == 0 ||
            r.lanes_signed + r.single_ops != r.service_requests ||
            r.padded_lanes != 16 * r.batches - r.lanes_signed) {
          std::fprintf(stderr,
                       "FAIL: %llu private ops, but %llu in batch lanes and "
                       "%llu single-stream (%llu batches, %llu padded)\n",
                       static_cast<unsigned long long>(r.service_requests),
                       static_cast<unsigned long long>(r.lanes_signed),
                       static_cast<unsigned long long>(r.single_ops),
                       static_cast<unsigned long long>(r.batches),
                       static_cast<unsigned long long>(r.padded_lanes));
          ok = false;
        }
        if (max_pending == 0 && r.shed != 0) {
          std::fprintf(stderr, "FAIL: %llu shed without an admission cap\n",
                       static_cast<unsigned long long>(r.shed));
          ok = false;
        }
        if (max_pending != 0 && r.shed == 0) {
          std::fprintf(stderr,
                       "FAIL: admission cap %zu set but nothing shed\n",
                       max_pending);
          ok = false;
        }
        return ok ? 0 : 1;
      }
      case Mode::kNone:
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phissl_loadgen: %s\n", e.what());
    return 1;
  }
  return usage();
}
