// Unit tests for the trace-driven replay engine (src/phisim/replay.hpp)
// and autotuner (src/phisim/autotune.hpp): scheduler-model behavior on
// hand-built traces (threshold dispatch, linger flush behind a busy slot,
// forced-full, admission shedding, the event-frontend resume stage, the
// per-flush single-stream route on a lone arrival and a sparse stream),
// autotune determinism (the golden property: same trace + grid + cost +
// seed -> identical recommendation), tuned-config JSON round-trip, and the
// ssl::apply_tuned_config mapping onto live service configs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/workload.hpp"
#include "phisim/autotune.hpp"
#include "phisim/replay.hpp"
#include "ssl/batch_decrypt.hpp"
#include "ssl/driver.hpp"
#include "ssl/tuned_config.hpp"

namespace phissl::phisim {
namespace {

obs::WorkloadEvent arrival(std::uint64_t at_us) {
  obs::WorkloadEvent ev;
  ev.arrival_ns = at_us * 1000;
  ev.op = obs::WorkloadOp::kSign;
  ev.key_bits = 1024;
  return ev;
}

std::vector<obs::WorkloadEvent> burst(std::uint64_t start_us, std::size_t n,
                                      std::uint64_t step_us = 1) {
  std::vector<obs::WorkloadEvent> evs;
  for (std::size_t i = 0; i < n; ++i) {
    evs.push_back(arrival(start_us + i * step_us));
  }
  return evs;
}

ReplayCost cost_us(double batch, double slack = 0.0) {
  ReplayCost c = ReplayCost::from_measured(batch);
  c.linger_slack_us = slack;
  return c;
}

// Costs with a single-stream route: the service's per-flush choice.
ReplayCost routed_us(double batch, double single, double slack = 0.0) {
  ReplayCost c = ReplayCost::from_measured(batch, single);
  c.linger_slack_us = slack;
  return c;
}

// Deterministic pseudo-Poisson trace (LCG, no std RNG): the shared input
// for the golden tests.
std::vector<obs::WorkloadEvent> synthetic_trace(std::size_t n,
                                                std::uint64_t mean_gap_us) {
  std::vector<obs::WorkloadEvent> evs;
  std::uint64_t state = 0x2545F4914F6CDD1DULL, t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += (state >> 33) % (2 * mean_gap_us + 1);
    evs.push_back(arrival(t));
  }
  return evs;
}

TEST(Replay, FullBurstDispatchesAtThresholdWithZeroWait) {
  const auto evs = burst(100, 16, 0);  // 16 simultaneous arrivals
  const ReplayResult r = replay_workload(evs, ReplayConfig{}, cost_us(500));
  EXPECT_EQ(r.offered, 16u);
  EXPECT_EQ(r.admitted, 16u);
  EXPECT_EQ(r.batches, 1u);
  EXPECT_EQ(r.full_batches, 1u);
  EXPECT_EQ(r.padded_lanes, 0u);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
  EXPECT_DOUBLE_EQ(r.wait_us.max, 0.0);
  // Sojourn = wait + batch service.
  EXPECT_DOUBLE_EQ(r.sojourn_us.max, 500.0);
  EXPECT_DOUBLE_EQ(r.makespan_us, 500.0);
}

TEST(Replay, LingerFlushesPartialAtDeadlinePlusSlack) {
  // One op at t=0, the next far beyond the linger deadline: the first is
  // linger-flushed at deadline + slack, the second rides the final drain.
  std::vector<obs::WorkloadEvent> evs = {arrival(0), arrival(50'000)};
  ReplayConfig cfg;
  cfg.linger_us = 500.0;
  const ReplayResult r = replay_workload(evs, cfg, cost_us(100, 150));
  EXPECT_EQ(r.batches, 2u);
  EXPECT_EQ(r.full_batches, 0u);
  EXPECT_EQ(r.padded_lanes, 30u);
  EXPECT_DOUBLE_EQ(r.wait_us.max, 650.0);  // linger + slack
  EXPECT_DOUBLE_EQ(r.wait_us.min, 0.0);    // the drained op
}

TEST(Replay, LingerWaitsForBusySlot) {
  // Batch 1: full 16 at t=0, busy until 1000. A lone op at t=100 expires
  // its 500us linger at 600 but must wait for the slot: flushed at 1000.
  auto evs = burst(0, 16, 0);
  evs.push_back(arrival(100));
  evs.push_back(arrival(5'000));  // advances time past every flush
  ReplayConfig cfg;
  cfg.linger_us = 500.0;
  const ReplayResult r = replay_workload(evs, cfg, cost_us(1000, 0));
  EXPECT_EQ(r.batches, 3u);
  // Waits: 16 zeros, then the blocked op (1000 - 100), then the drain op.
  EXPECT_DOUBLE_EQ(r.wait_us.max, 900.0);
}

TEST(Replay, FullBatchesOnlyNeverLingerFlushes) {
  // 8 ops spread over 10ms: with full_batches_only nothing dispatches
  // until the stop() drain, which stamps waits at the last arrival.
  const auto evs = burst(0, 8, 1250);
  ReplayConfig cfg;
  cfg.full_batches_only = true;
  const ReplayResult r = replay_workload(evs, cfg, cost_us(100));
  EXPECT_EQ(r.batches, 1u);
  EXPECT_EQ(r.full_batches, 0u);
  EXPECT_DOUBLE_EQ(r.wait_us.max, 7.0 * 1250.0);  // first op waits to drain
}

TEST(Replay, MaxBatchLanesLowersTheThreshold) {
  const auto evs = burst(0, 16, 0);
  ReplayConfig cfg;
  cfg.max_batch_lanes = 8;
  const ReplayResult r = replay_workload(evs, cfg, cost_us(500));
  EXPECT_EQ(r.batches, 2u);  // two 8-lane dispatches
  EXPECT_EQ(r.full_batches, 0u);
  EXPECT_DOUBLE_EQ(r.occupancy, 0.5);
}

TEST(Replay, AdmissionShedsWhenPredictedWaitExceedsBound) {
  // 64 simultaneous arrivals, 1000us batches: the 17th op onward sees a
  // growing backlog. With the bound at one batch + linger, everything
  // past the first two batches' worth of depth is shed.
  const auto evs = burst(0, 64, 0);
  ReplayConfig cfg;
  cfg.linger_us = 100.0;
  cfg.admission_max_wait_us = 1200.0;  // 1 batch (1000) + linger hint (100)
  const ReplayResult r = replay_workload(evs, cfg, cost_us(1000));
  EXPECT_EQ(r.offered, 64u);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.admitted + r.shed, 64u);
  EXPECT_GT(r.shed_fraction, 0.0);
  // Depth 16 predicts ceil(17/16)*1000 + 100 = 2100 > 1200: only the
  // first 16 are admitted.
  EXPECT_EQ(r.admitted, 16u);
}

TEST(Replay, ResumedEventsAreSkippedAndShedReoffered) {
  auto evs = burst(0, 16, 0);
  evs[3].resumed = true;  // this handshake avoided its private op
  evs[7].shed = true;     // shed by the RECORDED config; re-offered here
  const ReplayResult r = replay_workload(evs, ReplayConfig{}, cost_us(500));
  EXPECT_EQ(r.offered, 15u);  // 16 minus the resumed one
  EXPECT_EQ(r.admitted, 15u); // default config admits everything
  EXPECT_EQ(r.shed, 0u);
}

TEST(Replay, EventWorkersModelResumeStage) {
  const auto evs = burst(0, 16, 0);
  ReplayConfig one;
  one.event_workers = 1;
  ReplayConfig four;
  four.event_workers = 4;
  const ReplayResult r1 = replay_workload(evs, one, cost_us(500));
  const ReplayResult r4 = replay_workload(evs, four, cost_us(500));
  // 16 resumes at 2us each on one worker: the last waits 30us; on four
  // workers the tail shrinks by 4x.
  EXPECT_DOUBLE_EQ(r1.resume_wait_us.max, 30.0);
  EXPECT_DOUBLE_EQ(r4.resume_wait_us.max, 6.0);
  // No reactor (direct SignService callers): no resume stage at all.
  const ReplayResult r0 =
      replay_workload(evs, ReplayConfig{}, cost_us(500));
  EXPECT_EQ(r0.resume_wait_us.count, 0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const auto evs = synthetic_trace(500, 40);
  ReplayConfig cfg;
  cfg.linger_us = 200.0;
  const ReplayResult a = replay_workload(evs, cfg, cost_us(700, 150));
  const ReplayResult b = replay_workload(evs, cfg, cost_us(700, 150));
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_DOUBLE_EQ(a.wait_us.p99, b.wait_us.p99);
  EXPECT_DOUBLE_EQ(a.sojourn_us.p99, b.sojourn_us.p99);
  EXPECT_DOUBLE_EQ(a.occupancy, b.occupancy);
}


// --- Per-flush route (service/route.hpp, shared with SignService) ----------

TEST(ReplayRoute, LoneArrivalRunsSingleStream) {
  // One op, which the stop() drain flushes at its arrival (the trace ends
  // there), as one single-stream op: no batch, no padded lane, sojourn =
  // one op.
  const std::vector<obs::WorkloadEvent> evs = {arrival(0)};
  ReplayConfig cfg;
  cfg.linger_us = 500.0;
  const ReplayResult r = replay_workload(evs, cfg, routed_us(1000, 120, 150));
  EXPECT_EQ(r.admitted, 1u);
  EXPECT_EQ(r.single_ops, 1u);
  EXPECT_EQ(r.batches, 0u);
  EXPECT_EQ(r.padded_lanes, 0u);
  EXPECT_DOUBLE_EQ(r.occupancy, 0.0);
  EXPECT_DOUBLE_EQ(r.wait_us.max, 0.0);
  EXPECT_DOUBLE_EQ(r.sojourn_us.max, 120.0);
  // Without a single-stream cost the same arrival pays a padded batch.
  const ReplayResult b = replay_workload(evs, cfg, cost_us(1000, 150));
  EXPECT_EQ(b.single_ops, 0u);
  EXPECT_EQ(b.batches, 1u);
  EXPECT_EQ(b.padded_lanes, 15u);
  EXPECT_DOUBLE_EQ(b.sojourn_us.max, 1000.0);
}

TEST(ReplayRoute, SparseStreamRunsEveryFlushSingleStream) {
  // Arrivals 5 ms apart, beyond every linger deadline: each is flushed
  // alone (deadline + slack) on the single-stream route, and the dispatch
  // slot is busy one op per arrival instead of one padded batch.
  const auto evs = burst(0, 10, 5000);
  ReplayConfig cfg;
  cfg.linger_us = 500.0;
  const ReplayResult r = replay_workload(evs, cfg, routed_us(1000, 120, 150));
  EXPECT_EQ(r.single_ops, 10u);
  EXPECT_EQ(r.batches, 0u);
  // Nine linger flushes (the last arrival rides the drain).
  EXPECT_DOUBLE_EQ(r.wait_us.max, 650.0);
  EXPECT_DOUBLE_EQ(r.sojourn_us.max, 770.0);
  const ReplayResult b = replay_workload(evs, cfg, cost_us(1000, 150));
  EXPECT_EQ(b.batches, 10u);
  EXPECT_DOUBLE_EQ(b.sojourn_us.max, 1650.0);
}

TEST(ReplayRoute, FlushAtTheBoundaryRunsTheBatch) {
  // Four simultaneous ops, then the stop() drain: 4 x 250 == 1000 runs
  // the batch (a tie is not cheaper); 4 x 249 < 1000 runs single-stream.
  const auto evs = burst(0, 4, 0);
  ReplayConfig cfg;
  cfg.full_batches_only = true;
  const ReplayResult tie = replay_workload(evs, cfg, routed_us(1000, 250));
  EXPECT_EQ(tie.batches, 1u);
  EXPECT_EQ(tie.single_ops, 0u);
  const ReplayResult below = replay_workload(evs, cfg, routed_us(1000, 249));
  EXPECT_EQ(below.batches, 0u);
  EXPECT_EQ(below.single_ops, 4u);
  // Ops complete one after another.
  EXPECT_DOUBLE_EQ(below.sojourn_us.min, 249.0);
  EXPECT_DOUBLE_EQ(below.sojourn_us.max, 4 * 249.0);
}

TEST(ReplayRoute, FullBurstStillRunsOneBatch) {
  const auto evs = burst(100, 16, 0);
  const ReplayResult r =
      replay_workload(evs, ReplayConfig{}, routed_us(500, 1));
  EXPECT_EQ(r.batches, 1u);
  EXPECT_EQ(r.full_batches, 1u);
  EXPECT_EQ(r.single_ops, 0u);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

// --- autotune ---------------------------------------------------------------

TEST(Autotune, GoldenSameTraceSameSeedSameRecommendation) {
  const auto evs = synthetic_trace(800, 30);
  const ReplayCost cost = cost_us(900, 150);
  const AutotuneReport a = autotune(evs, cost, AutotuneGrid{}, 42);
  const AutotuneReport b = autotune(evs, cost, AutotuneGrid{}, 42);
  EXPECT_EQ(a.best, b.best);  // full TunedConfig equality, predictions too
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.candidates[i].score, b.candidates[i].score);
  }
  // The seed is a stamp, not an RNG: a different seed changes nothing but
  // the stamp.
  const AutotuneReport c = autotune(evs, cost, AutotuneGrid{}, 7);
  EXPECT_EQ(c.best.seed, 7u);
  TunedConfig restamped = c.best;
  restamped.seed = a.best.seed;
  EXPECT_EQ(restamped, a.best);
}

TEST(Autotune, WinnerHasMinimalScoreAndGridWide) {
  const auto evs = synthetic_trace(400, 25);
  const AutotuneGrid grid;
  const AutotuneReport report = autotune(evs, cost_us(800, 150), grid, 1);
  const std::size_t cells = grid.linger_us.size() *
                            grid.max_batch_lanes.size() *
                            grid.dispatch_slots.size() *
                            grid.admission_max_wait_us.size() *
                            grid.event_workers.size();
  EXPECT_EQ(report.candidates.size(), cells);
  for (const AutotuneCandidate& cand : report.candidates) {
    EXPECT_LE(report.best.score, cand.score);
  }
}

TEST(Autotune, EmptyGridDimensionThrows) {
  AutotuneGrid grid;
  grid.linger_us.clear();
  EXPECT_THROW(autotune(synthetic_trace(10, 10), cost_us(100), grid, 1),
               std::invalid_argument);
}

TEST(TunedConfigJson, RoundTrip) {
  TunedConfig cfg;
  cfg.linger_us = 350.0;
  cfg.max_batch_lanes = 12;
  cfg.dispatch_threads = 2;
  cfg.event_workers = 4;
  cfg.admission_max_wait_us = 15000.0;
  cfg.cache_shards = 64;
  cfg.seed = 99;
  cfg.predicted_p99_wait_us = 812.5;
  cfg.predicted_p99_latency_us = 1712.5;
  cfg.predicted_occupancy = 0.9375;
  cfg.predicted_shed_fraction = 0.0625;
  cfg.score = 1234.5;

  std::stringstream ss;
  write_tuned_config_json(ss, cfg);
  const TunedConfig back = parse_tuned_config_json(ss);
  EXPECT_EQ(back, cfg);
}

TEST(TunedConfigJson, ParserRejectsBadDocuments) {
  const auto parse = [](const std::string& doc) {
    std::istringstream is(doc);
    return parse_tuned_config_json(is);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{\"schema\":\"something-else\",\"version\":1}"),
               std::runtime_error);
  // Right schema, wrong version.
  std::stringstream good;
  write_tuned_config_json(good, TunedConfig{});
  std::string doc = good.str();
  const std::size_t v = doc.find("\"version\": 1");
  ASSERT_NE(v, std::string::npos);
  doc.replace(v, 12, "\"version\": 9");
  EXPECT_THROW(parse(doc), std::runtime_error);
  // Out-of-range lanes.
  std::stringstream bad_lanes;
  TunedConfig lanes_cfg;
  lanes_cfg.max_batch_lanes = 17;
  write_tuned_config_json(bad_lanes, lanes_cfg);
  EXPECT_THROW(parse(bad_lanes.str()), std::runtime_error);
}

TEST(ApplyTunedConfig, MapsOntoServiceAndDriverConfigs) {
  TunedConfig tuned;
  tuned.linger_us = 250.0;
  tuned.max_batch_lanes = 8;
  tuned.dispatch_threads = 2;
  tuned.event_workers = 4;
  tuned.admission_max_wait_us = 9000.0;
  tuned.cache_shards = 32;

  service::SignServiceConfig svc;
  ssl::apply_tuned_config(tuned, svc);
  EXPECT_EQ(svc.max_linger, std::chrono::microseconds(250));
  EXPECT_EQ(svc.max_batch_lanes, 8u);
  EXPECT_EQ(svc.dispatch_threads, 2u);

  ssl::BatchDecryptConfig bd;
  ssl::apply_tuned_config(tuned, bd);
  EXPECT_EQ(bd.max_linger, std::chrono::microseconds(250));
  EXPECT_EQ(bd.max_batch_lanes, 8u);
  EXPECT_EQ(bd.dispatch_threads, 2u);

  ssl::DriverConfig drv;
  ssl::apply_tuned_config(tuned, drv);
  EXPECT_EQ(drv.batch_linger, std::chrono::microseconds(250));
  EXPECT_EQ(drv.batch_max_lanes, 8u);
  EXPECT_EQ(drv.batch_dispatch_threads, 2u);
  EXPECT_EQ(drv.event_workers, 4u);
  EXPECT_EQ(drv.admission.max_predicted_wait,
            std::chrono::microseconds(9000));
  EXPECT_EQ(drv.admission.linger_hint, std::chrono::microseconds(250));
  EXPECT_EQ(drv.cache_shards, 32u);

  // Admission off: the linger hint keeps its default.
  TunedConfig no_adm = tuned;
  no_adm.admission_max_wait_us = 0.0;
  no_adm.event_workers = 0;
  ssl::DriverConfig drv2;
  const auto default_hint = drv2.admission.linger_hint;
  const auto default_workers = drv2.event_workers;
  ssl::apply_tuned_config(no_adm, drv2);
  EXPECT_EQ(drv2.admission.max_predicted_wait, std::chrono::microseconds(0));
  EXPECT_EQ(drv2.admission.linger_hint, default_hint);
  EXPECT_EQ(drv2.event_workers, default_workers);
}

}  // namespace
}  // namespace phissl::phisim
