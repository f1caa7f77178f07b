// phissl_e2e_server: the system under test for the end-to-end benchmark.
//
//   phissl_e2e_server --conns N [--dhe RATIO] [--seed S]
//
// Brings up the epoll socket terminator (ssl::async::SocketFrontend) on an
// ephemeral loopback port with the ifma52 backend on both the batched
// private-op path and the engine that serves DH and the certificate, then
// serves exactly N connections from an external load generator.
//
// stdout protocol (run.py reads it):
//   line 1:  "port <P>"                      once the listener is bound
//   line 2:  one JSON object                 after the N-th connection
// The JSON carries the DriverReport fields, the process's user+sys CPU
// from listening to exit, and the Prometheus scrape of every counter and
// histogram the library exports.
//
// Only SocketFrontend, DriverConfig, EngineOptions, rsa::test_key and
// render_prometheus are used, so refactors behind them stay invisible here.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/driver.hpp"

namespace {

using namespace phissl;

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 16);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: phissl_e2e_server --conns N [--dhe RATIO] [--seed S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::size_t> conns;
  double dhe = 0.0;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* v = argv[i + 1];
    if (std::strcmp(argv[i], "--conns") == 0) {
      conns = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--dhe") == 0) {
      dhe = std::strtod(v, nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(v, nullptr, 10);
    } else {
      return usage();
    }
  }
  if (!conns.has_value() || argc % 2 == 0) return usage();

  try {
    const rsa::Engine engine(rsa::test_key(2048),
                             rsa::EngineOptions{.kernel = rsa::Kernel::kIfma52});
    ssl::DriverConfig cfg;
    cfg.num_handshakes = *conns;
    cfg.event_workers = 2;
    cfg.batch_dispatch_threads = 1;
    cfg.batch_backend = rsa::Backend::kIfma52;
    cfg.event_dhe_ratio = dhe;
    cfg.seed = seed;

    ssl::DriverReport r;
    double cpu_s = 0.0;
    {
      ssl::async::SocketFrontend frontend(engine, cfg);
      const double cpu_at_listen = cpu_seconds();
      std::printf("port %u\n", static_cast<unsigned>(frontend.port()));
      std::fflush(stdout);
      r = frontend.run();
      cpu_s = cpu_seconds() - cpu_at_listen;
    }

    std::ostringstream scrape;
    obs::render_prometheus(scrape);
    std::printf(
        "{\"completed\": %zu, \"failed\": %zu, \"resumed\": %zu, "
        "\"shed\": %llu, \"wall_s\": %.6f, \"cpu_s\": %.6f, "
        "\"batches\": %llu, \"occupancy\": %.6f, "
        "\"resumptions_per_wakeup\": %.6f, \"accepts\": %llu, "
        "\"eagain\": %llu, \"resets\": %llu, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"prometheus\": \"%s\"}\n",
        r.completed, r.failed, r.resumed,
        static_cast<unsigned long long>(r.shed), r.wall_seconds, cpu_s,
        static_cast<unsigned long long>(r.batches), r.batch_lane_occupancy,
        r.resumptions_per_wakeup, static_cast<unsigned long long>(r.accepts),
        static_cast<unsigned long long>(r.eagain),
        static_cast<unsigned long long>(r.resets),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        json_escape(scrape.str()).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phissl_e2e_server: %s\n", e.what());
    return 1;
  }
}
