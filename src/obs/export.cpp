#include "obs/export.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"

namespace phissl::obs {

namespace {

/// Matches `--<flag>`, `--<flag> <value>`, `--<flag>=<value>`; returns
/// true and fills `value` (default when none given). `consumed_next` is
/// set when the value came from argv[i + 1].
bool parse_path_flag(int argc, char** argv, int i, const char* flag,
                     const char* default_path, std::string& value,
                     bool& consumed_next) {
  consumed_next = false;
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, flag_len) != 0) return false;
  const char* rest = argv[i] + flag_len;
  if (*rest == '=') {
    value = rest + 1;
    return true;
  }
  if (*rest != '\0') return false;  // e.g. --tracefoo
  if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
    value = argv[i + 1];
    consumed_next = true;
  } else {
    value = default_path;
  }
  return true;
}

}  // namespace

ExportConfig ExportConfig::from_args(int argc, char** argv) {
  ExportConfig cfg;
  for (int i = 1; i < argc; ++i) {
    bool consumed = false;
    if (parse_path_flag(argc, argv, i, "--trace", "trace.json",
                        cfg.trace_path, consumed) ||
        parse_path_flag(argc, argv, i, "--metrics", "metrics.prom",
                        cfg.metrics_path, consumed) ||
        parse_path_flag(argc, argv, i, "--workload", "workload.jsonl",
                        cfg.workload_path, consumed)) {
      if (consumed) ++i;
    }
  }
  if (!cfg.trace_path.empty()) set_tracing(true);
  if (!cfg.workload_path.empty()) {
    WorkloadRecorder::global().set_recording(true);
  }
  return cfg;
}

bool ExportConfig::owns_arg(int argc, char** argv, int i,
                            bool& consumed_next) {
  std::string ignored;
  return parse_path_flag(argc, argv, i, "--trace", "", ignored,
                         consumed_next) ||
         parse_path_flag(argc, argv, i, "--metrics", "", ignored,
                         consumed_next) ||
         parse_path_flag(argc, argv, i, "--workload", "", ignored,
                         consumed_next);
}

bool ExportConfig::write() const {
  bool ok = true;
  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    if (!f) {
      std::fprintf(stderr, "obs: cannot open %s\n", trace_path.c_str());
      ok = false;
    } else {
      write_chrome_trace(f);
      std::printf("wrote Chrome trace to %s (open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    if (!f) {
      std::fprintf(stderr, "obs: cannot open %s\n", metrics_path.c_str());
      ok = false;
    } else {
      render_prometheus(f);
      std::printf("wrote Prometheus metrics dump to %s\n",
                  metrics_path.c_str());
    }
  }
  if (!workload_path.empty()) {
    std::ofstream f(workload_path);
    if (!f) {
      std::fprintf(stderr, "obs: cannot open %s\n", workload_path.c_str());
      ok = false;
    } else {
      WorkloadRecorder::global().export_jsonl(f);
      std::printf("wrote workload trace to %s\n", workload_path.c_str());
    }
  }
  return ok;
}

}  // namespace phissl::obs
