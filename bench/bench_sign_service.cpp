// E13: async batched signing service under open-loop load. A Poisson
// arrival process (open loop: arrival times are drawn up front and do not
// wait for completions, like independent clients) drives single sign()
// requests at the SignService, which coalesces them into 16-lane
// BatchEngine batches. The sweep is arrival rate x flush policy:
//
//   - rate, as a multiple of the measured full-batch capacity of this
//     host (16 / t_batch signs/s);
//   - flush policy: a small linger deadline (flush partial batches after
//     max_linger) vs forced-full batching (dispatch only on 16 pending —
//     maximal lane occupancy, unbounded queueing delay at light load).
//
// The two headline readouts (recorded in bench/results/BENCH_service.json):
//   - mean lane occupancy at saturating rates must stay >= ~90% even with
//     a small linger (the queue refills faster than it drains, so batches
//     fill without the deadline firing);
//   - p99 end-to-end latency at LOW rates must be strictly lower with a
//     small linger than with forced-full batching (a lone request waits
//     max_linger instead of ~15 inter-arrival times).
//
//   ./bench_sign_service [--smoke] [--json [path]]
//                        [--backend knc_vec|ifma52|ifma52-portable]
//                        [--trace [path]] [--metrics [path]]
//                        [--workload path]
//
// --backend picks the service's Montgomery backend (default ifma52, which
// runs its portable twin on hosts without AVX-512 IFMA).
// --smoke shrinks the sweep to a seconds-long CI run (512-bit key, few
// requests); --json with no path writes bench_sign_service.json. --trace
// enables span recording and writes a Chrome trace (chrome://tracing /
// Perfetto); --metrics dumps the process metric registry in Prometheus
// text format. Both are validated by tools/check_trace_json.py in CI.
// --workload turns the workload trace recorder (obs/workload.hpp) on for
// the whole sweep and writes the JSONL trace to `path` (one event per
// request; checked by tools/check_trace_json.py --workload).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "obs/export.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/key.hpp"
#include "service/sign_service.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace phissl;

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// One sweep cell: a fresh service, N Poisson arrivals at `rate_rps`,
/// then a drain; returns what the JSON row needs.
struct CellResult {
  double achieved_rps = 0.0;    // measured submission rate
  double throughput_rps = 0.0;  // completions / (last done - first submit)
  double occupancy = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t full_batches = 0;
  std::uint64_t single_ops = 0;
  util::Summary latency_us;     // submit -> signature ready, per request
  util::Summary queue_wait_us;  // submit -> batch dispatch, per request
  util::Summary service_us;     // per-batch kernel time
};

CellResult run_cell(const rsa::PrivateKey& key, double rate_rps,
                    const service::SignServiceConfig& cfg,
                    std::size_t requests, util::Rng& rng) {
  service::SignService svc(key, cfg);

  std::vector<util::Sha256::Digest> digests(64);
  for (auto& d : digests) rng.fill_bytes(d.data(), d.size());

  std::vector<std::future<service::SignResult>> futs;
  futs.reserve(requests);
  const Clock::time_point start = Clock::now();
  Clock::time_point next_arrival = start;
  for (std::size_t i = 0; i < requests; ++i) {
    // Exponential inter-arrival: -ln(U)/rate, U uniform on (0, 1].
    const double u =
        (static_cast<double>(rng.next_u64() >> 11) + 1.0) * 0x1.0p-53;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate_rps));
    std::this_thread::sleep_until(next_arrival);
    futs.push_back(svc.sign(digests[i % digests.size()]));
  }
  const Clock::time_point submit_end = Clock::now();
  svc.stop();  // drains: every future below is ready

  std::vector<double> latency;
  latency.reserve(requests);
  Clock::time_point last_done = start;
  for (auto& f : futs) {
    const service::SignResult r = f.get();
    latency.push_back(to_us(r.completed_at - r.submitted_at));
    if (r.completed_at > last_done) last_done = r.completed_at;
  }

  const service::StatsSnapshot s = svc.stats();
  CellResult c;
  c.achieved_rps = static_cast<double>(requests) /
                   std::chrono::duration<double>(submit_end - start).count();
  c.throughput_rps = static_cast<double>(requests) /
                     std::chrono::duration<double>(last_done - start).count();
  c.occupancy = s.mean_lane_occupancy;
  c.batches = s.batches;
  c.full_batches = s.full_batches;
  c.single_ops = s.single_ops;
  c.latency_us = util::summarize(std::move(latency));
  c.queue_wait_us = s.queue_wait_us;
  c.service_us = s.service_us;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const rsa::Backend backend = bench::batch_backend_from_args(argc, argv);

  bench::print_header("E13 bench_sign_service",
                      "async batched signing service: arrival rate x "
                      "linger-deadline sweep (Poisson open loop)");
  auto json = bench::JsonReporter::from_args("bench_sign_service", argc, argv);
  auto obs_out = obs::ExportConfig::from_args(argc, argv);

  const std::size_t bits = smoke ? 512 : 1024;
  const std::size_t requests = smoke ? 48 : 600;
  const rsa::PrivateKey& key = rsa::test_key(bits);

  // Capacity calibration: the service cannot sign faster than back-to-back
  // full batches, so rates are expressed against 16 / t_batch.
  const rsa::BatchEngine cal(key, backend);
  std::printf("\nbatch backend: %s\n", rsa::to_string(backend));
  util::Rng rng(7);
  std::array<bigint::BigInt, rsa::BatchEngine::kBatch> xs;
  for (auto& x : xs) x = bigint::BigInt::random_below(key.pub.n, rng);
  bool cal_capped = false;
  const double t_batch_ms =
      bench::time_op_ms([&] { (void)cal.private_op(xs); }, 3, 0.2, 50,
                        &cal_capped)
          .median;
  const double capacity_rps =
      static_cast<double>(rsa::BatchEngine::kBatch) / (t_batch_ms * 1e-3);
  std::printf("\nRSA-%zu: full 16-lane batch = %.2f ms -> capacity %.0f "
              "signs/s on this host%s\n",
              bits, t_batch_ms, capacity_rps,
              cal_capped ? " (rep-capped calibration)" : "");
  json.add_row("calibration", std::to_string(bits),
               {{"t_batch_ms", t_batch_ms},
                {"capacity_rps", capacity_rps},
                {"capped", cal_capped ? 1.0 : 0.0}});

  struct Policy {
    const char* label;
    service::SignServiceConfig cfg;
  };
  std::vector<Policy> policies;
  {
    service::SignServiceConfig base;
    base.dispatch_threads = 1;  // 1-core host: one batch in flight
    base.backend = backend;
    Policy small{"linger_200us", base};
    small.cfg.max_linger = std::chrono::microseconds(200);
    Policy mid{"linger_1000us", base};
    mid.cfg.max_linger = std::chrono::microseconds(1000);
    Policy full{"full_only", base};
    full.cfg.max_linger = std::nullopt;
    if (smoke) {
      small.label = "linger_300us";
      small.cfg.max_linger = std::chrono::microseconds(300);
      policies = {small, full};
    } else {
      policies = {small, mid, full};
    }
  }
  // The low end must be genuinely light load: at 0.05x capacity the 16
  // inter-arrival gaps a forced-full batch waits for dwarf both the
  // linger deadline and the batch service time, which is the regime the
  // adaptive flush exists for. (At ~0.5x the two policies converge: the
  // queue refills within one batch service time either way.)
  const std::vector<double> rate_multipliers =
      smoke ? std::vector<double>{0.1, 3.0}
            : std::vector<double>{0.05, 0.2, 1.0, 3.0};

  // Remember the acceptance-criteria cells as the sweep runs.
  double low_rate_p99_linger = -1.0, low_rate_p99_full = -1.0;
  double saturated_occupancy = -1.0;

  for (const Policy& policy : policies) {
    std::printf("\n[%s]\n", policy.label);
    std::printf("%8s %12s %12s %10s %8s %8s %12s %12s %12s %12s\n", "rate",
                "target/s", "achieved/s", "occup", "batches", "singles",
                "lat p50 us", "lat p95 us", "lat p99 us", "qwait p50");
    for (const double mult : rate_multipliers) {
      const double rate = mult * capacity_rps;
      util::Rng cell_rng(static_cast<std::uint64_t>(mult * 1000) +
                         (policy.cfg.max_linger ? 0u : 1u));
      const CellResult c =
          run_cell(key, rate, policy.cfg, requests, cell_rng);
      std::printf("%6.2fx %12.0f %12.0f %9.1f%% %8llu %8llu %12.0f %12.0f "
                  "%12.0f %12.0f\n",
                  mult, rate, c.achieved_rps, 100.0 * c.occupancy,
                  static_cast<unsigned long long>(c.batches),
                  static_cast<unsigned long long>(c.single_ops),
                  c.latency_us.median, c.latency_us.p95, c.latency_us.p99,
                  c.queue_wait_us.median);
      char rate_name[32];
      std::snprintf(rate_name, sizeof rate_name, "%.2fx", mult);
      json.add_row(policy.label, rate_name,
                   {{"target_rps", rate},
                    {"achieved_rps", c.achieved_rps},
                    {"throughput_rps", c.throughput_rps},
                    {"occupancy", c.occupancy},
                    {"batches", static_cast<double>(c.batches)},
                    {"full_batches", static_cast<double>(c.full_batches)},
                    {"single_ops", static_cast<double>(c.single_ops)},
                    {"lat_p50_us", c.latency_us.median},
                    {"lat_p95_us", c.latency_us.p95},
                    {"lat_p99_us", c.latency_us.p99},
                    {"qwait_p50_us", c.queue_wait_us.median},
                    {"qwait_p99_us", c.queue_wait_us.p99},
                    {"service_p50_us", c.service_us.median}});

      const bool low_rate = mult == rate_multipliers.front();
      const bool top_rate = mult == rate_multipliers.back();
      if (low_rate && !policy.cfg.max_linger) {
        low_rate_p99_full = c.latency_us.p99;
      }
      if (low_rate && policy.cfg.max_linger && low_rate_p99_linger < 0) {
        low_rate_p99_linger = c.latency_us.p99;  // smallest linger policy
      }
      if (top_rate && policy.cfg.max_linger) {
        saturated_occupancy = c.occupancy;
      }
    }
  }

  std::printf("\nacceptance readouts:\n");
  std::printf("  mean lane occupancy at %.1fx capacity (linger policy): "
              "%.1f%% (target >= 90%%)\n",
              rate_multipliers.back(), 100.0 * saturated_occupancy);
  std::printf("  low-rate p99 latency: linger %.0f us vs forced-full %.0f us "
              "(linger must be strictly lower)\n",
              low_rate_p99_linger, low_rate_p99_full);
  json.add_row("acceptance", "summary",
               {{"saturated_occupancy", saturated_occupancy},
                {"low_rate_p99_linger_us", low_rate_p99_linger},
                {"low_rate_p99_full_us", low_rate_p99_full}});
  const bool ok = saturated_occupancy >= 0.90 &&
                  low_rate_p99_linger < low_rate_p99_full;
  std::printf("  => %s\n", ok ? "OK" : "NOT MET (rerun; 1-core host noise)");

  const bool wrote_obs = obs_out.write();
  return json.write() && wrote_obs ? 0 : 1;
}
