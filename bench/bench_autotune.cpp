// E15: validation of the trace-driven replay model and the autotuner it
// feeds (the model -> tune half of the observe -> model -> tune loop).
// Two questions:
//
//  1. Model fidelity: run live E13-style sweep cells (Poisson open loop
//     into a SignService) with the workload recorder on, then replay each
//     cell's own trace through phisim::replay_workload under the SAME
//     configuration and compare predicted lane occupancy and p99 queue
//     wait against the measured values. Acceptance: both within 15% on at
//     least 3 cells. The measured p99 comes from the exact per-event
//     queue_wait_ns values in the trace, not a bucketed histogram.
//
//  2. Recommendation quality: run phisim::autotune on the saturated
//     cell's trace, apply the recommended config via
//     ssl::apply_tuned_config, and re-run that cell. Acceptance: the
//     recommendation is no worse than the service defaults (p99 latency
//     within 10%, throughput within 5%, or strictly better).
//
//   ./bench_autotune [--smoke] [--json [path]]
//
// Results are recorded in bench/results/BENCH_autotune.json.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "obs/workload.hpp"
#include "phisim/autotune.hpp"
#include "phisim/replay.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "service/sign_service.hpp"
#include "ssl/tuned_config.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace phissl;

/// One live cell: Poisson arrivals at `rate_rps` into a fresh service with
/// the recorder running; returns the measured side plus the trace that the
/// replay model gets to work from.
struct LiveCell {
  double occupancy = 0.0;
  double throughput_rps = 0.0;
  util::Summary latency_us;  // submit -> signature ready, per request
  util::Summary wait_us;     // submit -> dispatch, exact per-event values
  std::vector<obs::WorkloadEvent> trace;
};

LiveCell run_cell(const rsa::PrivateKey& key, double rate_rps,
                  const service::SignServiceConfig& cfg, std::size_t requests,
                  util::Rng& rng) {
  obs::WorkloadRecorder& rec = obs::WorkloadRecorder::global();

  service::SignService svc(cfg);
  svc.add_key("k", key);
  std::vector<util::Sha256::Digest> digests(64);
  for (auto& d : digests) rng.fill_bytes(d.data(), d.size());

  // Warm-up: the first batches a fresh service runs pay per-thread
  // workspace allocation in the dispatch pool, several times the
  // steady-state batch cost — with only a few hundred samples that one
  // slow batch IS the p99. Run two batches per dispatch thread first,
  // outside the recorded window (the replay model prices every batch at
  // the steady-state calibrated cost).
  {
    std::vector<std::future<service::SignResult>> warm;
    for (std::size_t i = 0; i < 32 * cfg.dispatch_threads; ++i) {
      warm.push_back(svc.sign("k", digests[i % digests.size()]));
    }
    for (auto& f : warm) (void)f.get();
  }
  rec.clear();

  std::vector<std::future<service::SignResult>> futs;
  futs.reserve(requests);
  const Clock::time_point start = Clock::now();
  Clock::time_point next_arrival = start;
  for (std::size_t i = 0; i < requests; ++i) {
    const double u =
        (static_cast<double>(rng.next_u64() >> 11) + 1.0) * 0x1.0p-53;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate_rps));
    std::this_thread::sleep_until(next_arrival);
    futs.push_back(svc.sign("k", digests[i % digests.size()]));
  }
  svc.stop();  // drains: every future below is ready

  std::vector<double> latency;
  latency.reserve(requests);
  Clock::time_point last_done = start;
  for (auto& f : futs) {
    const service::SignResult r = f.get();
    latency.push_back(
        std::chrono::duration<double, std::micro>(r.completed_at -
                                                  r.submitted_at)
            .count());
    if (r.completed_at > last_done) last_done = r.completed_at;
  }

  LiveCell c;
  c.occupancy = svc.stats().mean_lane_occupancy;
  c.throughput_rps =
      static_cast<double>(requests) /
      std::chrono::duration<double>(last_done - start).count();
  c.latency_us = util::summarize(std::move(latency));
  c.trace = rec.drain();
  std::vector<double> waits;
  waits.reserve(c.trace.size());
  for (const obs::WorkloadEvent& ev : c.trace) {
    if (!ev.shed && !ev.resumed) {
      waits.push_back(static_cast<double>(ev.queue_wait_ns) * 1e-3);
    }
  }
  c.wait_us = util::summarize(std::move(waits));
  return c;
}

double err_pct(double predicted, double measured) {
  if (measured <= 0.0) return predicted <= 0.0 ? 0.0 : 100.0;
  return 100.0 * std::fabs(predicted - measured) / measured;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");

  bench::print_header("E15 bench_autotune",
                      "replay-model fidelity vs live sweep cells + "
                      "autotuner recommendation vs service defaults");
  auto json = bench::JsonReporter::from_args("bench_autotune", argc, argv);

  obs::WorkloadRecorder::global().set_recording(true);

  const std::size_t bits = smoke ? 512 : 1024;
  const std::size_t requests = smoke ? 96 : 320;
  const rsa::PrivateKey& key = rsa::test_key(bits);

  // Capacity calibration, exactly the bench_sign_service probe: the batch
  // cost it measures is both the rate scale for the cells and, with the
  // single-stream op cost next to it, the ReplayCost the model runs
  // against (the live service routes each partial flush on the same two).
  const rsa::BatchEngine cal(key);
  const rsa::Engine cal_single(key,
                               rsa::EngineOptions{.kernel = cal.backend()});
  util::Rng rng(7);
  std::array<bigint::BigInt, rsa::BatchEngine::kBatch> xs;
  for (auto& x : xs) x = bigint::BigInt::random_below(key.pub.n, rng);
  bool cal_capped = false;
  const double t_batch_ms =
      bench::time_op_ms([&] { (void)cal.private_op(xs); }, 3, 0.2, 50,
                        &cal_capped)
          .median;
  bigint::BigInt one;
  const double t_single_ms =
      bench::time_op_ms([&] { cal_single.private_op_into(xs[0], one); }, 3,
                        0.2, 200)
          .median;
  const double capacity_rps =
      static_cast<double>(rsa::BatchEngine::kBatch) / (t_batch_ms * 1e-3);
  const phisim::ReplayCost cost =
      phisim::ReplayCost::from_measured(t_batch_ms * 1e3, t_single_ms * 1e3);
  std::printf("\nRSA-%zu: full 16-lane batch = %.2f ms -> capacity %.0f "
              "signs/s; replay batch cost %.0f us, single-stream op %.0f "
              "us%s\n",
              bits, t_batch_ms, capacity_rps, cost.batch_us,
              cost.single_op_us,
              cal_capped ? " (rep-capped calibration)" : "");
  json.add_row("calibration", std::to_string(bits),
               {{"t_batch_ms", t_batch_ms},
                {"capacity_rps", capacity_rps},
                {"batch_us", cost.batch_us},
                {"single_op_us", cost.single_op_us}});

  // --- 1. model fidelity: live cell vs replay of its own trace -----------
  struct Cell {
    const char* label;
    double mult;
    std::chrono::microseconds linger;
  };
  const std::vector<Cell> cells =
      smoke ? std::vector<Cell>{{"linger_500us", 0.2, std::chrono::microseconds(500)},
                                {"linger_500us", 3.0, std::chrono::microseconds(500)},
                                {"linger_200us", 3.0, std::chrono::microseconds(200)}}
            : std::vector<Cell>{{"linger_500us", 0.2, std::chrono::microseconds(500)},
                                {"linger_500us", 1.0, std::chrono::microseconds(500)},
                                {"linger_500us", 3.0, std::chrono::microseconds(500)},
                                {"linger_200us", 3.0, std::chrono::microseconds(200)}};

  std::printf("\nmodel fidelity (measured vs replay of the cell's trace):\n");
  std::printf("%14s %6s | %9s %9s %6s | %11s %11s %6s\n", "cell", "rate",
              "occ meas", "occ pred", "err", "p99w meas", "p99w pred", "err");

  int within15 = 0;
  std::vector<obs::WorkloadEvent> saturated_trace;
  service::SignServiceConfig default_cfg;
  default_cfg.dispatch_threads = 1;
  double saturated_rate = 0.0;

  for (const Cell& cell : cells) {
    service::SignServiceConfig cfg = default_cfg;
    cfg.max_linger = cell.linger;
    const double rate = cell.mult * capacity_rps;
    util::Rng cell_rng(static_cast<std::uint64_t>(cell.mult * 1000) +
                       static_cast<std::uint64_t>(cell.linger.count()));
    const LiveCell live = run_cell(key, rate, cfg, requests, cell_rng);

    phisim::ReplayConfig rcfg;
    rcfg.linger_us = static_cast<double>(cell.linger.count());
    rcfg.max_batch_lanes = cfg.max_batch_lanes;
    rcfg.dispatch_slots = cfg.dispatch_threads;
    const phisim::ReplayResult pred =
        phisim::replay_workload(live.trace, rcfg, cost);

    const double occ_err = err_pct(pred.occupancy, live.occupancy);
    const double wait_err = err_pct(pred.wait_us.p99, live.wait_us.p99);
    const bool ok = occ_err <= 15.0 && wait_err <= 15.0;
    if (ok) ++within15;
    std::printf("%14s %5.1fx | %8.1f%% %8.1f%% %5.1f%% | %9.0fus %9.0fus "
                "%5.1f%% %s\n",
                cell.label, cell.mult, 100.0 * live.occupancy,
                100.0 * pred.occupancy, occ_err, live.wait_us.p99,
                pred.wait_us.p99, wait_err, ok ? "" : "<- off");
    char rate_name[48];
    std::snprintf(rate_name, sizeof rate_name, "%s_%.2fx", cell.label,
                  cell.mult);
    json.add_row("validation", rate_name,
                 {{"target_rps", rate},
                  {"measured_occupancy", live.occupancy},
                  {"predicted_occupancy", pred.occupancy},
                  {"occupancy_err_pct", occ_err},
                  {"measured_p99_wait_us", live.wait_us.p99},
                  {"predicted_p99_wait_us", pred.wait_us.p99},
                  {"p99_wait_err_pct", wait_err},
                  {"within_15pct", ok ? 1.0 : 0.0}});

    const bool saturated = cell.mult == 3.0 && cell.linger.count() == 500;
    if (saturated || (saturated_trace.empty() && &cell == &cells.back())) {
      saturated_trace = live.trace;
      saturated_rate = rate;
    }
  }

  // --- 2. recommendation vs defaults on the saturated cell ----------------
  const phisim::AutotuneReport report =
      phisim::autotune(saturated_trace, cost, phisim::AutotuneGrid{}, 1);
  service::SignServiceConfig tuned_cfg = default_cfg;
  ssl::apply_tuned_config(report.best, tuned_cfg);
  std::printf("\nautotune on the saturated trace (%zu events): linger %.0f "
              "us, %zu lanes, %zu dispatch threads\n",
              saturated_trace.size(), report.best.linger_us,
              report.best.max_batch_lanes, report.best.dispatch_threads);

  // A/B/B/A: each config leads once, so drift biases both sides equally.
  std::vector<double> def_p99, tun_p99, def_rps, tun_rps;
  for (int pair = 0; pair < 2; ++pair) {
    for (int side = 0; side < 2; ++side) {
      const bool tuned = (side == 0) == (pair % 2 == 1);
      util::Rng ab_rng(91 + static_cast<std::uint64_t>(pair));
      const LiveCell c = run_cell(key, saturated_rate,
                                  tuned ? tuned_cfg : default_cfg, requests,
                                  ab_rng);
      (tuned ? tun_p99 : def_p99).push_back(c.latency_us.p99);
      (tuned ? tun_rps : def_rps).push_back(c.throughput_rps);
    }
  }
  const double def_p99_med = util::summarize(def_p99).median;
  const double tun_p99_med = util::summarize(tun_p99).median;
  const double def_rps_med = util::summarize(def_rps).median;
  const double tun_rps_med = util::summarize(tun_rps).median;
  const bool rec_ok = tun_p99_med <= def_p99_med * 1.10 &&
                      tun_rps_med >= def_rps_med * 0.95;

  std::printf("saturated cell, defaults vs recommendation (median of 2):\n");
  std::printf("  defaults:    p99 %8.0f us, %8.0f signs/s\n", def_p99_med,
              def_rps_med);
  std::printf("  recommended: p99 %8.0f us, %8.0f signs/s\n", tun_p99_med,
              tun_rps_med);
  json.add_row("recommendation", "saturated",
               {{"tuned_linger_us", report.best.linger_us},
                {"tuned_max_batch_lanes",
                 static_cast<double>(report.best.max_batch_lanes)},
                {"tuned_dispatch_threads",
                 static_cast<double>(report.best.dispatch_threads)},
                {"default_p99_us", def_p99_med},
                {"tuned_p99_us", tun_p99_med},
                {"default_rps", def_rps_med},
                {"tuned_rps", tun_rps_med}});

  std::printf("\nacceptance readouts:\n");
  std::printf("  cells with occupancy AND p99 wait within 15%%: %d of %zu "
              "(target >= 3)\n",
              within15, cells.size());
  std::printf("  recommendation no worse than defaults: %s\n",
              rec_ok ? "yes" : "no");
  const bool ok = within15 >= 3 && rec_ok;
  std::printf("  => %s\n", ok ? "OK" : "NOT MET (rerun; 1-core host noise)");
  json.add_row("acceptance", "summary",
               {{"cells_within_15pct", static_cast<double>(within15)},
                {"recommendation_ok", rec_ok ? 1.0 : 0.0},
                {"ok", ok ? 1.0 : 0.0}});

  obs::WorkloadRecorder::global().set_recording(false);
  return json.write() ? 0 : 1;
}
