// Consuming autotuner output: load a tuned-config JSON document (emitted
// by `phissl_autotune`, schema in phisim/autotune.hpp) and apply its
// knobs onto the live configuration structs. This is the last arc of the
// observe -> model -> tune loop: capture a workload trace with
// --workload, sweep it with phissl_autotune, then boot the service from
// the winning file:
//
//   service::SignServiceConfig cfg;
//   ssl::apply_tuned_config(ssl::load_tuned_config("tuned.json"), cfg);
//
// apply_tuned_config only touches the knobs the autotuner actually swept
// or derived (linger, lanes, threads/workers, admission wait, cache
// shards); everything else — backend, key material, workload shape —
// keeps the caller's values.
#pragma once

#include <string>

#include "phisim/autotune.hpp"
#include "service/sign_service.hpp"
#include "ssl/driver.hpp"

namespace phissl::ssl {

/// Reads and parses a tuned-config JSON file. Throws std::runtime_error
/// if the file cannot be opened or fails schema validation.
phisim::TunedConfig load_tuned_config(const std::string& path);

/// Batch-scheduler knobs: max_linger, max_batch_lanes, dispatch_threads
/// (also the config BatchDecryptService takes).
void apply_tuned_config(const phisim::TunedConfig& tuned,
                        service::SignServiceConfig& cfg);

/// Driver knobs: the batched-path trio plus event_workers (only when the
/// tuning ran with a reactor grid, i.e. tuned.event_workers > 0; 0 = no
/// reactor, a recommendation for direct SignService callers, leaves the
/// driver's value alone),
/// admission max_predicted_wait (+ linger_hint synced to the tuned
/// linger), and cache_shards. The frontend choice itself stays the
/// caller's.
void apply_tuned_config(const phisim::TunedConfig& tuned, DriverConfig& cfg);

}  // namespace phissl::ssl
