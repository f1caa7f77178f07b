#include "ssl/tuned_config.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace phissl::ssl {

namespace {

std::chrono::microseconds to_us(double us) {
  return std::chrono::microseconds(
      static_cast<std::int64_t>(std::llround(us)));
}

}  // namespace

phisim::TunedConfig load_tuned_config(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("load_tuned_config: cannot open " + path);
  }
  return phisim::parse_tuned_config_json(f);
}

void apply_tuned_config(const phisim::TunedConfig& tuned,
                        service::SignServiceConfig& cfg) {
  cfg.max_linger = to_us(tuned.linger_us);
  cfg.max_batch_lanes = tuned.max_batch_lanes;
  cfg.dispatch_threads = tuned.dispatch_threads;
}

void apply_tuned_config(const phisim::TunedConfig& tuned, DriverConfig& cfg) {
  cfg.batch_linger = to_us(tuned.linger_us);
  cfg.batch_max_lanes = tuned.max_batch_lanes;
  cfg.batch_dispatch_threads = tuned.dispatch_threads;
  if (tuned.event_workers > 0) cfg.event_workers = tuned.event_workers;
  cfg.admission.max_predicted_wait = to_us(tuned.admission_max_wait_us);
  if (tuned.admission_max_wait_us > 0.0) {
    // Keep the predictor's linger term in step with the tuned linger, as
    // the replay model assumed.
    cfg.admission.linger_hint = to_us(tuned.linger_us);
  }
  cfg.cache_shards = tuned.cache_shards;
}

}  // namespace phissl::ssl
