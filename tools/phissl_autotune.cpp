// phissl_autotune: sweep candidate service configurations over a recorded
// workload trace and emit the winner as tuned-config JSON.
//
//   phissl_autotune <workload.jsonl> [--out tuned_config.json]
//                   [--batch-us X | --model]
//                   [--event-workers 0,2,4] [--seed N] [--all]
//
// The trace comes from any instrumented binary run with --workload (the
// bench harnesses and examples all take the flag; see docs/AUTOTUNE.md).
// Costs default to a live calibration on this host: one 16-lane
// BatchEngine private_op and, next to it, one single-stream Engine
// private_op on the same key and backend, each timed — so the replay
// routes partial flushes the way the live service would on the machine it
// runs on. --batch-us X skips the probe (replaying a production trace on a
// dev box against the production cost; the replay then always batches);
// --model prices batches with the phisim PCIe offload model instead
// (tuning for the KNC deployment).
//
// The winning config is written as JSON consumable by
// ssl::load_tuned_config() / apply_tuned_config(). --all additionally
// prints the full scoreboard. Exit 0 on success, 2 on usage errors,
// 1 on a bad trace.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "obs/workload.hpp"
#include "phisim/autotune.hpp"
#include "phisim/profile.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace {

using namespace phissl;

/// Median wall times on this host of one full 16-lane batch private_op
/// and of one single-stream private op (CRT, fixed window) on the same key
/// and backend — the two costs the service's per-flush route compares.
phisim::ReplayCost calibrate(std::size_t key_bits) {
  const rsa::PrivateKey& key = rsa::test_key(key_bits);
  const rsa::BatchEngine batch(key);
  const rsa::Engine single(key, rsa::EngineOptions{.kernel = batch.backend()});
  util::Rng rng(7);
  std::array<bigint::BigInt, rsa::BatchEngine::kBatch> xs;
  std::array<bigint::BigInt, rsa::BatchEngine::kBatch> out;
  for (auto& x : xs) x = bigint::BigInt::random_below(key.pub.n, rng);
  bigint::BigInt one;
  const auto median_us = [](auto&& op) {
    op();  // warm-up (tables, allocator)
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
      util::Stopwatch sw;
      op();
      samples.push_back(static_cast<double>(sw.elapsed_ns()) * 1e-3);
    }
    return util::summarize(std::move(samples)).median;
  };
  return phisim::ReplayCost::from_measured(
      median_us([&] { batch.private_op(xs, out); }),
      median_us([&] { single.private_op_into(xs[0], one); }));
}

std::vector<std::size_t> parse_size_list(const char* s) {
  std::vector<std::size_t> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    out.push_back(static_cast<std::size_t>(std::strtoull(p, &end, 10)));
    if (end == p) throw std::invalid_argument("bad list element");
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: phissl_autotune <workload.jsonl> [--out tuned_config.json]\n"
      "                       [--batch-us X | --model]\n"
      "                       [--event-workers 0,2,4] [--seed N] [--all]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string out_path = "tuned_config.json";
  double batch_us_override = 0.0;
  bool use_model = false;
  bool print_all = false;
  std::uint64_t seed = 1;
  phisim::AutotuneGrid grid;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(a, "--batch-us") == 0 && i + 1 < argc) {
      batch_us_override = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--model") == 0) {
      use_model = true;
    } else if (std::strcmp(a, "--event-workers") == 0 && i + 1 < argc) {
      try {
        grid.event_workers = parse_size_list(argv[++i]);
      } catch (const std::exception&) {
        return usage();
      }
    } else if (std::strcmp(a, "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--all") == 0) {
      print_all = true;
    } else if (a[0] == '-') {
      return usage();
    } else if (trace_path.empty()) {
      trace_path = a;
    } else {
      return usage();
    }
  }
  if (trace_path.empty()) return usage();

  std::vector<obs::WorkloadEvent> events;
  try {
    std::ifstream f(trace_path);
    if (!f) throw std::runtime_error("cannot open " + trace_path);
    events = obs::load_workload_jsonl(f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phissl_autotune: %s\n", e.what());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "phissl_autotune: trace has no events\n");
    return 1;
  }
  std::size_t key_bits = 1024;
  for (const obs::WorkloadEvent& ev : events) {
    if (ev.key_bits > 0) {
      key_bits = ev.key_bits;
      break;
    }
  }

  phisim::ReplayCost cost;
  if (batch_us_override > 0.0) {
    cost = phisim::ReplayCost::from_measured(batch_us_override);
    std::printf("batch cost: %.1f us (given)\n", cost.batch_us);
  } else if (use_model) {
    const phisim::OffloadModel model;
    const phisim::KernelProfile op =
        phisim::profile_rsa_private(key_bits, rsa::EngineOptions{});
    const std::size_t k = key_bits / 8;
    cost = phisim::ReplayCost::from_offload_model(model, op, k, k);
    std::printf("batch cost: %.1f us (phisim offload model, RSA-%zu)\n",
                cost.batch_us, key_bits);
  } else {
    cost = calibrate(key_bits);
    std::printf(
        "batch cost: %.1f us, single-stream op: %.1f us (calibrated on "
        "this host, RSA-%zu)\n",
        cost.batch_us, cost.single_op_us, key_bits);
  }

  const phisim::AutotuneReport report =
      phisim::autotune(events, cost, grid, seed);

  std::printf("trace: %zu events, %llu ops offered\n", events.size(),
              static_cast<unsigned long long>(
                  report.candidates.front().result.offered));
  if (print_all) {
    std::printf("%10s %6s %6s %8s %8s | %9s %9s %7s %7s %12s\n", "linger_us",
                "lanes", "slots", "adm_us", "workers", "p99w_us", "p99l_us",
                "occup", "shed%", "score");
    for (const phisim::AutotuneCandidate& c : report.candidates) {
      std::printf(
          "%10.0f %6zu %6zu %8.0f %8zu | %9.0f %9.0f %6.1f%% %6.2f%% %12.1f\n",
          c.config.linger_us, c.config.max_batch_lanes,
          c.config.dispatch_slots, c.config.admission_max_wait_us,
          c.config.event_workers, c.result.wait_us.p99,
          c.result.sojourn_us.p99, 100.0 * c.result.occupancy,
          100.0 * c.result.shed_fraction, c.score);
    }
  }

  const phisim::TunedConfig& best = report.best;
  std::printf(
      "\nrecommended: linger %.0f us, %zu lanes, %zu dispatch threads, "
      "%zu event workers, admission %s, %zu cache shards\n"
      "predicted:   p99 wait %.0f us, p99 latency %.0f us, occupancy "
      "%.1f%%, shed %.2f%%\n",
      best.linger_us, best.max_batch_lanes, best.dispatch_threads,
      best.event_workers,
      best.admission_max_wait_us > 0.0
          ? (std::to_string(static_cast<long long>(best.admission_max_wait_us)) +
             " us")
                .c_str()
          : "off",
      best.cache_shards, best.predicted_p99_wait_us,
      best.predicted_p99_latency_us, 100.0 * best.predicted_occupancy,
      100.0 * best.predicted_shed_fraction);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "phissl_autotune: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  phisim::write_tuned_config_json(out, best);
  std::printf("wrote %s (load with ssl::load_tuned_config)\n",
              out_path.c_str());
  return 0;
}
