// Shared helpers for the table-style benchmark harnesses: repeat an
// operation until a time budget is spent and report median latency, the
// way the paper's tables report per-op times.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "rsa/backend.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace phissl::bench {

/// Runs `op` repeatedly (at least min_reps times, at least min_seconds of
/// wall time, capped at max_reps) and returns per-op latency statistics in
/// milliseconds. When `capped` is non-null it reports whether the rep cap
/// cut the run short of its time budget — a capped measurement has fewer
/// samples than requested, so downstream consumers (JSON rows, plots)
/// should treat its percentiles with suspicion.
inline util::Summary time_op_ms(const std::function<void()>& op,
                                int min_reps = 5, double min_seconds = 0.2,
                                int max_reps = 1000, bool* capped = nullptr) {
  op();  // warm-up
  std::vector<double> samples;
  util::Stopwatch total;
  int reps = 0;
  while (reps < min_reps ||
         (total.elapsed_s() < min_seconds && reps < max_reps)) {
    util::Stopwatch sw;
    op();
    samples.push_back(sw.elapsed_s() * 1e3);
    ++reps;
  }
  if (capped != nullptr) *capped = total.elapsed_s() < min_seconds;
  return util::summarize(std::move(samples));
}

/// Parses `--backend <name>` for harnesses that batch: returns ifma52
/// (BatchEngine's default) when the flag is absent, and prints usage and
/// exits 2 on an unknown name or one without a batched form (scalar32,
/// scalar64).
inline rsa::Backend batch_backend_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") != 0) continue;
    const auto b = rsa::backend_from_string(argv[i + 1]);
    if (!b || !rsa::has_batch_form(*b)) {
      std::fprintf(stderr,
                   "bad --backend %s (knc_vec|ifma52|ifma52-portable)\n",
                   argv[i + 1]);
      std::exit(2);
    }
    return *b;
  }
  return rsa::Backend::kIfma52;
}

/// True when `flag` appears among the harness's arguments (e.g. "--smoke").
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Which terminator sweeps a handshake harness runs.
struct FrontendChoice {
  bool event = true;    ///< the reactor over the simulated transport
  bool socket = false;  ///< the reactor over loopback sockets
};

/// Parses `--frontend event|socket|all` (default: event only; socket is
/// opt-in, it needs a Linux host with loopback), and prints usage and
/// exits 2 on any other value.
inline FrontendChoice frontend_from_args(int argc, char** argv) {
  FrontendChoice choice;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--frontend") != 0) continue;
    const char* f = argv[i + 1];
    if (std::strcmp(f, "event") == 0) {
      choice = {.event = true, .socket = false};
    } else if (std::strcmp(f, "socket") == 0) {
      choice = {.event = false, .socket = true};
    } else if (std::strcmp(f, "all") == 0) {
      choice = {.event = true, .socket = true};
    } else {
      std::fprintf(stderr, "unknown --frontend %s (event|socket|all)\n", f);
      std::exit(2);
    }
  }
  return choice;
}

/// Prints the standard harness header naming the experiment.
inline void print_header(const char* experiment, const char* description) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", experiment, description);
  std::printf("=============================================================\n");
}

/// Machine-readable results alongside the printed tables: collects named
/// rows of numeric metrics and writes them as JSON to the path given by a
/// `--json <path>` (or `--json=<path>`) flag; a bare `--json` (no path,
/// or followed by another `--flag`) writes to `<benchmark>.json` in the
/// working directory. With no flag every call is a no-op, so harnesses
/// can report unconditionally.
class JsonReporter {
 public:
  JsonReporter() = default;

  /// Parses --json from the harness's argv. `benchmark` names the harness
  /// in the output (e.g. "bench_mont_exp").
  static JsonReporter from_args(const char* benchmark, int argc,
                                char** argv) {
    JsonReporter r;
    r.benchmark_ = benchmark;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          r.path_ = argv[i + 1];
        } else {
          r.path_ = r.benchmark_ + ".json";
        }
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        r.path_ = argv[i] + 7;
      }
    }
    return r;
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Records one result row. `group` names the table the row belongs to
  /// (e.g. "host_ms" vs "knc_sim_ms"); `name` identifies the row within it.
  void add_row(std::string group, std::string name,
               std::initializer_list<std::pair<const char*, double>> metrics) {
    if (!enabled()) return;
    Row row{std::move(group), std::move(name), {}};
    for (const auto& [k, v] : metrics) row.metrics.emplace_back(k, v);
    rows_.push_back(std::move(row));
  }

  /// Writes the collected rows; prints the destination path. Returns false
  /// (after printing a diagnostic) if the file cannot be written.
  bool write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"rows\": [",
                 benchmark_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      std::fprintf(f, "%s\n    {\"group\": \"%s\", \"name\": \"%s\"",
                   i == 0 ? "" : ",", row.group.c_str(), row.name.c_str());
      std::fprintf(f, ", \"metrics\": {");
      for (std::size_t m = 0; m < row.metrics.size(); ++m) {
        std::fprintf(f, "%s\"%s\": %.9g", m == 0 ? "" : ", ",
                     row.metrics[m].first.c_str(), row.metrics[m].second);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote JSON results to %s\n", path_.c_str());
    return true;
  }

 private:
  struct Row {
    std::string group, name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  std::string benchmark_;
  std::string path_;
  std::vector<Row> rows_;
};

}  // namespace phissl::bench
