// E8: thread scaling on the Xeon Phi. The physical 61-core / 244-thread
// card is the hardware gate of this reproduction, so the scaling curve is
// produced by the phisim KNC cost model (DESIGN.md documents the
// substitution); host-measured reactor points are printed alongside as a
// functional sanity check (this host may have very few cores — the
// absolute numbers are not comparable, only the plumbing is exercised).
#include <cstdio>
#include <thread>

#include "baseline/systems.hpp"
#include "bench/harness.hpp"
#include "phisim/core_model.hpp"
#include "rsa/key.hpp"
#include "ssl/driver.hpp"

int main() {
  using namespace phissl;

  bench::print_header("E8 bench_thread_scaling",
                      "RSA-2048 private-op throughput vs thread count");

  const phisim::ChipModel chip;
  std::printf("\n(a) simulated KNC chip (%d cores x %d threads, %.2f GHz), "
              "scatter affinity [ops/s]\n",
              chip.config().cores, chip.config().threads_per_core,
              chip.config().clock_hz / 1e9);
  std::printf("%8s %14s %14s %14s\n", "threads", "PhiOpenSSL",
              "MPSS-libcrypto", "OpenSSL-default");
  for (const int threads : {1, 2, 4, 8, 15, 30, 60, 120, 180, 240}) {
    std::printf("%8d", threads);
    for (const auto s : baseline::all_systems()) {
      const auto profile =
          phisim::profile_rsa_private(2048, baseline::options_for(s));
      std::printf(" %14.1f", chip.throughput_ops_s(profile, threads));
    }
    std::printf("\n");
  }

  std::printf("\n    compact affinity, PhiOpenSSL [ops/s] "
              "(shows the fill-cores-first penalty)\n");
  std::printf("%8s %14s %14s\n", "threads", "scatter", "compact");
  const auto phi_profile = phisim::profile_rsa_private(
      2048, baseline::options_for(baseline::System::kPhiOpenSSL));
  for (const int threads : {4, 16, 60, 120, 240}) {
    std::printf("%8d %14.1f %14.1f\n", threads,
                chip.throughput_ops_s(phi_profile, threads,
                                      phisim::Affinity::kScatter),
                chip.throughput_ops_s(phi_profile, threads,
                                      phisim::Affinity::kCompact));
  }

  // Scalar private ops resolved on the reactor workers, one open
  // connection per worker: each worker runs one handshake at a time, as
  // one thread per connection would.
  std::printf("\n(b) host reactor sanity points, scalar private ops "
              "(host has %u hardware threads) [handshakes/s]\n",
              std::thread::hardware_concurrency());
  const rsa::Engine engine = baseline::make_engine(
      baseline::System::kPhiOpenSSL, rsa::test_key(2048));
  std::printf("%8s %14s\n", "workers", "PhiOpenSSL");
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ssl::DriverConfig cfg;
    cfg.num_handshakes = 8;
    cfg.event_workers = workers;
    cfg.max_open_connections = workers;
    cfg.batch_private_ops = false;
    const auto r = ssl::run_handshakes(engine, cfg);
    std::printf("%8zu %14.1f\n", workers, r.handshakes_per_s);
  }
  return 0;
}
