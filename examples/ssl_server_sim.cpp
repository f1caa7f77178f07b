// ssl_server_sim: simulates an SSL terminator doing full RSA-key-transport
// handshakes, comparing the three libcrypto systems — the paper's
// motivating workload as a runnable application. Each private op runs
// scalar on a reactor worker, and each worker serves one connection at a
// time. Exits 1 if any handshake fails.
//
//   ./ssl_server_sim [key_bits] [handshakes] [workers]
//   (defaults: 1024, 32, 2)
#include <cstdio>
#include <cstdlib>

#include "baseline/systems.hpp"
#include "rsa/key.hpp"
#include "ssl/driver.hpp"

int main(int argc, char** argv) {
  using namespace phissl;

  const std::size_t bits = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1024;
  const std::size_t count = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 32;
  const std::size_t workers = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 2;

  std::printf("== SSL handshake simulation: RSA-%zu, %zu handshakes, "
              "%zu reactor workers ==\n",
              bits, count, workers);
  const rsa::PrivateKey& key = rsa::test_key(bits);

  std::printf("%-18s %10s %12s %14s %14s\n", "system", "ok", "hs/s",
              "lat p50 (us)", "lat p95 (us)");
  for (const auto system : baseline::all_systems()) {
    const rsa::Engine engine = baseline::make_engine(system, key);
    ssl::DriverConfig cfg;
    cfg.num_handshakes = count;
    cfg.event_workers = workers;
    cfg.max_open_connections = workers;
    cfg.batch_private_ops = false;
    cfg.seed = 42;
    const ssl::DriverReport r = ssl::run_handshakes(engine, cfg);
    std::printf("%-18s %7zu/%zu %12.1f %14.0f %14.0f\n",
                baseline::name(system), r.completed, count, r.handshakes_per_s,
                r.latency_us.median, r.latency_us.p95);
    if (r.failed != 0) {
      std::printf("!! %zu handshakes failed\n", r.failed);
      return 1;
    }
  }
  return 0;
}
