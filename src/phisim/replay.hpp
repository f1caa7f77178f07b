// Trace-driven replay of the adaptive linger-batching scheduler: the
// model half of the observe -> model -> tune loop.
//
// A workload trace (obs/workload.hpp) records the exact arrival process
// and op mix a live SignService saw. This engine re-runs that arrival
// process through a deterministic discrete-event model of the scheduler —
// the same flush policy sign_service.cpp implements (threshold dispatch,
// linger-deadline partial flush gated on a free dispatch slot, stop()
// drain, and the per-flush route of service/route.hpp, called as the live
// service calls it) — against a per-batch and a single-op cost taken from
// the phisim OffloadModel or from a measurement. The output is what the service's stats() would have
// reported under a DIFFERENT configuration: lane occupancy, shed rate,
// and queue-wait percentiles for candidate configs that were never run.
// `phissl_autotune` (phisim/autotune.hpp) sweeps candidates over one
// recorded trace and picks a winner; bench_autotune validates the model
// against live runs of the same cells.
//
// Fidelity notes (where the model consciously diverges from the code):
//  - One key shard. Multi-key traces replay as if all ops shared a shard
//    (every recorded workload in this repo is single-key).
//  - Admission prediction uses the model's true batch cost where the live
//    AdmissionController uses its EWMA of measured costs — determinism
//    over fidelity; the steady-state values agree.
//  - Batch cost is constant per dispatch (the kernel always runs the
//    fixed 16-lane shape, so this matches the real service closely), and
//    so is the single-op cost; the live service routes on its running
//    estimates of both, the model on these constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "obs/workload.hpp"
#include "phisim/offload_model.hpp"
#include "util/stats.hpp"

namespace phissl::phisim {

/// The candidate configuration being evaluated — the replayable subset of
/// SignServiceConfig/DriverConfig knobs.
struct ReplayConfig {
  /// Partial-batch linger bound (SignServiceConfig::max_linger), in us.
  double linger_us = 500.0;
  /// Real lanes that trigger an immediate dispatch
  /// (SignServiceConfig::max_batch_lanes). Clamped to [1, 16].
  std::size_t max_batch_lanes = 16;
  /// Dispatch workers, each running one flush at a time
  /// (SignServiceConfig::dispatch_threads). Clamped to >= 1.
  std::size_t dispatch_slots = 1;
  /// Admission bound (AdmissionConfig::max_predicted_wait), in us;
  /// 0 = admit everything.
  double admission_max_wait_us = 0.0;
  /// Linger term of the admission predictor (AdmissionConfig::
  /// linger_hint); 0 = use linger_us.
  double admission_linger_hint_us = 0.0;
  /// Reactor workers handling batch-completion resumes; 0 = no reactor
  /// (direct SignService callers: no resume stage modeled).
  std::size_t event_workers = 0;
  /// Forced-full baseline: no deadline flush (final drain only).
  bool full_batches_only = false;
};

/// The cost side of the model: what one dispatch (and, for the event
/// frontend, one connection resume) costs in wall time.
struct ReplayCost {
  /// Wall time of one fixed-shape 16-lane batch dispatch, in us
  /// (kernel + completion delivery — what phissl_service_batch_service_us
  /// measures).
  double batch_us = 100.0;
  /// Wall time of one single-stream private op, in us (what
  /// phissl_service_single_op_us measures). A partial flush runs its ops
  /// one after another when that costs less than a batch
  /// (service::runs_single); the default, infinity, models a service that
  /// always batches.
  double single_op_us = std::numeric_limits<double>::infinity();
  /// Event frontend: per-connection resume handling on a reactor worker,
  /// in us (state-machine pump + record round-trip).
  double resume_us = 2.0;
  /// Delay between a linger deadline (or a dispatch worker coming free)
  /// and the flush actually firing: a parked worker's condition-variable
  /// wakeup plus scheduler latency. Recorded traces on the dev host show
  /// ~150us median. Matters for fidelity at bursty saturation: with zero
  /// slack the modeled linger wins races against threshold dispatch that
  /// the real (slower-to-wake) worker loses.
  double linger_slack_us = 150.0;

  /// Batch cost from the PCIe offload model: one 16-lane batch of `op`
  /// shipped to the card and back (profile_rsa_private(key_bits, ...) is
  /// the usual `op`; request/response are k bytes per lane).
  static ReplayCost from_offload_model(const OffloadModel& model,
                                       const KernelProfile& op,
                                       std::size_t request_bytes,
                                       std::size_t response_bytes);
  /// Costs measured on the live host (bench calibration — what
  /// bench_sign_service's capacity probe and phissl_autotune produce).
  static ReplayCost from_measured(
      double batch_us,
      double single_op_us = std::numeric_limits<double>::infinity());
};

/// What the replayed service would have reported.
struct ReplayResult {
  std::uint64_t offered = 0;    ///< arrivals fed to admission (excl. resumed)
  std::uint64_t admitted = 0;   ///< arrivals accepted and dispatched
  std::uint64_t shed = 0;       ///< arrivals rejected by admission
  std::uint64_t batches = 0;
  std::uint64_t full_batches = 0;
  std::uint64_t padded_lanes = 0;
  std::uint64_t single_ops = 0;  ///< admitted ops run single-stream
  double occupancy = 0.0;       ///< batched ops / (batches * 16)
  double shed_fraction = 0.0;   ///< shed / offered
  util::Summary wait_us;        ///< per-admitted-op queue wait (submit ->
                                ///< dispatch, the stats() definition)
  util::Summary sojourn_us;     ///< per-admitted-op submit -> its op's
                                ///< completion — the end-to-end latency a
                                ///< caller observes, which unlike wait_us
                                ///< includes time queued behind busy
                                ///< dispatch slots and the kernel itself
  util::Summary resume_wait_us; ///< event frontend only: completion ->
                                ///< reactor pickup (zeroed when
                                ///< event_workers == 0)
  double makespan_us = 0.0;     ///< first arrival -> last op completion
  double throughput_ops_per_s = 0.0;  ///< admitted / makespan
};

/// Replays `events` (a loaded workload trace; only arrival_ns and the
/// shed/resumed flags are consumed — recorded waits/batches are the
/// MEASURED side, not inputs) under `cfg` and `cost`. Events flagged
/// `resumed` carried no private op and are skipped; events flagged `shed`
/// are re-offered (the candidate admission config re-decides them).
/// Deterministic: same trace + config + cost -> identical result.
ReplayResult replay_workload(std::span<const obs::WorkloadEvent> events,
                             const ReplayConfig& cfg, const ReplayCost& cost);

}  // namespace phissl::phisim
