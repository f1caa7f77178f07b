// sign_service: the async batched signing service as a runnable demo —
// an SSL terminator's signing backend. A Poisson open-loop load generator
// submits single sign(digest) requests against two keys; the service
// coalesces them into 16-lane BatchEngine batches (adaptive lane-filling:
// full batches dispatch immediately, partials flush after a linger
// deadline into an idle dispatch slot). Prints a live stats snapshot
// mid-run and the final counters, and verifies every returned signature.
//
//   ./sign_service [rate_rps] [requests] [linger_us]
//                  [--trace [path]] [--metrics [path]]
//   (defaults: 800, 160, 500)
//
// --trace records scoped spans (svc.sign, svc.batch, rsa.* phases, ...)
// and writes a Chrome trace for chrome://tracing / Perfetto; --metrics
// dumps the process metric registry in Prometheus text format.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "bigint/bigint.hpp"
#include "obs/export.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "service/sign_service.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace {

void print_stats(const char* tag, const phissl::service::StatsSnapshot& s) {
  std::printf("%s requests=%llu batches=%llu (full=%llu, padded lanes=%llu) "
              "single-stream=%llu occupancy=%.1f%%\n"
              "%s queue-wait us p50/p95/p99 = %.0f/%.0f/%.0f | "
              "batch service us p50/p95 = %.0f/%.0f\n",
              tag, static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.full_batches),
              static_cast<unsigned long long>(s.padded_lanes),
              static_cast<unsigned long long>(s.single_ops),
              100.0 * s.mean_lane_occupancy, tag, s.queue_wait_us.median,
              s.queue_wait_us.p95, s.queue_wait_us.p99, s.service_us.median,
              s.service_us.p95);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phissl;
  using Clock = std::chrono::steady_clock;

  const auto obs_out = obs::ExportConfig::from_args(argc, argv);

  // Positional args, skipping the flags ExportConfig owns.
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    bool consumed_next = false;
    if (obs::ExportConfig::owns_arg(argc, argv, i, consumed_next)) {
      if (consumed_next) ++i;
      continue;
    }
    pos.push_back(argv[i]);
  }
  const double rate = pos.size() > 0 ? std::strtod(pos[0], nullptr) : 800.0;
  const std::size_t requests =
      pos.size() > 1 ? std::strtoul(pos[1], nullptr, 10) : 160;
  const long linger_us = pos.size() > 2 ? std::strtol(pos[2], nullptr, 10) : 500;

  std::printf("== async batched signing service: %.0f req/s Poisson, "
              "%zu requests, %ld us linger ==\n",
              rate, requests, linger_us);

  service::SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(linger_us);
  service::SignService svc(cfg);
  svc.add_key("rsa1024", rsa::test_key(1024));
  svc.add_key("rsa512", rsa::test_key(512));

  util::Rng rng(42);
  std::vector<util::Sha256::Digest> digests(requests);
  for (auto& d : digests) rng.fill_bytes(d.data(), d.size());

  std::vector<std::future<service::SignResult>> futs;
  futs.reserve(requests);
  Clock::time_point next_arrival = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const double u =
        (static_cast<double>(rng.next_u64() >> 11) + 1.0) * 0x1.0p-53;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate));
    std::this_thread::sleep_until(next_arrival);
    // 3:1 traffic mix across the two key shards.
    futs.push_back(svc.sign(i % 4 == 0 ? "rsa512" : "rsa1024", digests[i]));
    if (i == requests / 2) print_stats("[mid]  ", svc.stats());
  }
  svc.stop();

  std::size_t verified = 0;
  double worst_ms = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    const service::SignResult r = futs[i].get();
    const auto& pub = svc.public_key(i % 4 == 0 ? "rsa512" : "rsa1024");
    const rsa::Engine pub_engine(pub, rsa::EngineOptions{});
    const bigint::BigInt s = bigint::BigInt::from_bytes_be(r.signature);
    if (pub_engine.public_op(s).to_bytes_be(pub.byte_size()) ==
        rsa::emsa_pkcs1_v15_from_digest(digests[i], pub.byte_size())) {
      ++verified;
    }
    worst_ms = std::max(
        worst_ms, std::chrono::duration<double, std::milli>(r.completed_at -
                                                            r.submitted_at)
                      .count());
  }

  print_stats("[final]", svc.stats());
  std::printf("verified %zu/%zu signatures against the public keys; "
              "worst end-to-end latency %.1f ms\n",
              verified, requests, worst_ms);
  if (!obs_out.write()) return 1;
  return verified == requests ? 0 : 1;
}
