#include "phisim/replay.hpp"

#include "service/route.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

namespace phissl::phisim {

ReplayCost ReplayCost::from_offload_model(const OffloadModel& model,
                                          const KernelProfile& op,
                                          std::size_t request_bytes,
                                          std::size_t response_bytes) {
  ReplayCost c;
  c.batch_us =
      model.offload_batch_seconds(op, /*batch=*/16, request_bytes,
                                  response_bytes) *
      1e6;
  return c;
}

ReplayCost ReplayCost::from_measured(double batch_us, double single_op_us) {
  ReplayCost c;
  c.batch_us = batch_us;
  c.single_op_us = single_op_us;
  return c;
}

namespace {

/// One dispatch's completion (a batch, or one single-stream op), for the
/// event-frontend resume stage.
struct Completion {
  double at_us;
  std::size_t lanes;
};

}  // namespace

ReplayResult replay_workload(std::span<const obs::WorkloadEvent> events,
                             const ReplayConfig& cfg, const ReplayCost& cost) {
  const std::size_t threshold =
      std::clamp<std::size_t>(cfg.max_batch_lanes, 1, 16);
  const std::size_t slots = std::max<std::size_t>(cfg.dispatch_slots, 1);
  const double linger_hint = cfg.admission_linger_hint_us > 0.0
                                 ? cfg.admission_linger_hint_us
                                 : cfg.linger_us;

  ReplayResult res;
  // Worker j is free to start a flush at worker_free[j]; assignment picks
  // the earliest-free worker, which also models the pool's queue (a flush
  // dispatched while all are busy starts when the first one frees).
  std::vector<double> worker_free(slots, 0.0);
  std::vector<double> pending;  // arrival times (us) of queued ops
  std::vector<double> waits;
  std::vector<double> sojourns;
  std::vector<Completion> completions;
  double first_arrival = 0.0;
  double last_completion = 0.0;
  bool any = false;

  // In-flight real ops (dispatched, op not yet completed) — the live
  // AdmissionController's `pending` counts these too, since it releases
  // its slot only when the RESULT arrives. Min-heap of (completion, lanes)
  // drained as simulated time advances.
  using FlightEntry = std::pair<double, std::size_t>;
  std::priority_queue<FlightEntry, std::vector<FlightEntry>,
                      std::greater<FlightEntry>>
      in_flight;
  std::size_t in_flight_ops = 0;
  const auto settle_completions = [&](double t) {
    while (!in_flight.empty() && in_flight.top().first <= t) {
      in_flight_ops -= in_flight.top().second;
      in_flight.pop();
    }
  };

  const auto min_free = [&] {
    return *std::min_element(worker_free.begin(), worker_free.end());
  };

  // Flush `pending` as one dispatch at time t (queue wait is measured to
  // the dispatch() CALL, exactly like the live service's stats): one
  // batch, or its ops one after another when the route says so.
  const service::RouteCosts route{cost.single_op_us, cost.batch_us};
  // One completion of `lanes` ops at `at` (a batch, or a single-stream
  // op), for the resume stage and the admission depth.
  const auto finish = [&](double at, std::size_t lanes) {
    completions.push_back({at, lanes});
    in_flight.emplace(at, lanes);
    in_flight_ops += lanes;
    last_completion = std::max(last_completion, at);
  };
  const auto dispatch_batch = [&](double t) {
    const std::size_t real = pending.size();
    auto it = std::min_element(worker_free.begin(), worker_free.end());
    double at = std::max(t, *it);
    for (const double a : pending) waits.push_back(t - a);
    if (service::runs_single(real, route)) {
      res.single_ops += real;
      for (const double a : pending) {
        at += cost.single_op_us;
        sojourns.push_back(at - a);
        finish(at, 1);
      }
    } else {
      res.batches++;
      if (real == 16) res.full_batches++;
      res.padded_lanes += 16 - real;
      at += cost.batch_us;
      for (const double a : pending) sojourns.push_back(at - a);
      finish(at, real);
    }
    *it = at;
    pending.clear();
  };

  // Fires every linger flush strictly before `now` (+inf drains). The
  // slot-free gate mirrors the live scheduler: an expired partial waits
  // for a completion when every dispatch slot is busy, accumulating
  // arrivals meanwhile — which is modeled by the strict `< now` check
  // (an arrival at or before the effective flush time joins the batch).
  const auto run_linger_until = [&](double now) {
    while (!pending.empty() && !cfg.full_batches_only) {
      const double deadline = pending.front() + cfg.linger_us;
      const double flush_at =
          std::max(deadline, min_free()) + cost.linger_slack_us;
      if (flush_at >= now) break;
      dispatch_batch(flush_at);
    }
  };

  for (const obs::WorkloadEvent& ev : events) {
    if (ev.resumed) continue;  // no private op happened or was needed
    const double t = static_cast<double>(ev.arrival_ns) * 1e-3;
    if (!any) {
      first_arrival = t;
      any = true;
    }
    run_linger_until(t);
    settle_completions(t);
    res.offered++;
    if (cfg.admission_max_wait_us > 0.0) {
      // AdmissionController::predict with the model's true batch cost in
      // place of the live EWMA: the depth is every admitted op whose
      // result has not yet arrived (queued AND in-kernel), plus this one.
      const std::size_t depth = pending.size() + in_flight_ops;
      const double batches_ahead =
          std::ceil(static_cast<double>(depth + 1) / 16.0);
      const double predicted = batches_ahead * cost.batch_us + linger_hint;
      if (predicted > cfg.admission_max_wait_us) {
        res.shed++;
        continue;
      }
    }
    res.admitted++;
    pending.push_back(t);
    if (pending.size() >= threshold) dispatch_batch(t);
  }

  // stop() drain: the live service dispatches the remainder IMMEDIATELY at
  // the stop call (stamping queue_wait there; the batch then queues behind
  // any backlog), under every flush policy. The traces this repo records
  // end at the stop call, so the last arrival stands in for it.
  if (!pending.empty()) dispatch_batch(pending.back());

  // Event-frontend resume stage: each completion (a batch's real lanes, or
  // one single-stream op) releases resume events onto `event_workers`
  // reactor workers, each
  // costing resume_us of pump time — more workers drain a 16-wide
  // completion burst with less added tail wait.
  std::vector<double> resume_waits;
  if (cfg.event_workers > 0) {
    std::sort(completions.begin(), completions.end(),
              [](const Completion& a, const Completion& b) {
                return a.at_us < b.at_us;
              });
    std::vector<double> reactor_free(cfg.event_workers, 0.0);
    for (const Completion& c : completions) {
      for (std::size_t l = 0; l < c.lanes; ++l) {
        auto it = std::min_element(reactor_free.begin(), reactor_free.end());
        const double start = std::max(c.at_us, *it);
        resume_waits.push_back(start - c.at_us);
        *it = start + cost.resume_us;
      }
    }
  }

  res.occupancy = res.batches == 0
                      ? 0.0
                      : static_cast<double>(res.admitted - res.single_ops) /
                            static_cast<double>(res.batches * 16);
  res.shed_fraction = res.offered == 0
                          ? 0.0
                          : static_cast<double>(res.shed) /
                                static_cast<double>(res.offered);
  res.wait_us = util::summarize(std::move(waits));
  res.sojourn_us = util::summarize(std::move(sojourns));
  res.resume_wait_us = util::summarize(std::move(resume_waits));
  res.makespan_us = any ? last_completion - first_arrival : 0.0;
  res.throughput_ops_per_s =
      res.makespan_us > 0.0
          ? static_cast<double>(res.admitted) / (res.makespan_us * 1e-6)
          : 0.0;
  return res;
}

}  // namespace phissl::phisim
