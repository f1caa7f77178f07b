#include "obs/workload.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/thread_ring.hpp"
#include "util/timing.hpp"

namespace phissl::obs {

const char* to_string(WorkloadOp op) noexcept {
  switch (op) {
    case WorkloadOp::kSign:
      return "sign";
    case WorkloadOp::kPrivateOp:
      return "private_op";
    case WorkloadOp::kDheSign:
      return "dhe_sign";
  }
  return "sign";
}

std::optional<WorkloadOp> workload_op_from_string(std::string_view s) noexcept {
  if (s == "sign") return WorkloadOp::kSign;
  if (s == "private_op") return WorkloadOp::kPrivateOp;
  if (s == "dhe_sign") return WorkloadOp::kDheSign;
  return std::nullopt;
}

struct WorkloadRecorder::Impl {
  ThreadRing<WorkloadEvent, kRingCapacity> ring{Registry::global().counter(
      "phissl_workload_dropped_total",
      "workload-trace events overwritten by recorder ring wraparound")};
  std::atomic<bool> recording{false};
  std::atomic<std::uint64_t> batch_ids{0};
  // Pinned at recorder construction so arrival stamps from every thread
  // share one origin.
  const std::uint64_t epoch_ns = util::now_ns();
};

WorkloadRecorder::WorkloadRecorder() : impl_(new Impl) {}

WorkloadRecorder& WorkloadRecorder::global() {
  static WorkloadRecorder* r = new WorkloadRecorder;  // leaked, like Tracer
  return *r;
}

bool WorkloadRecorder::enabled() const noexcept {
  return impl_->recording.load(std::memory_order_relaxed);
}

void WorkloadRecorder::set_recording(bool on) noexcept {
  impl_->recording.store(on, std::memory_order_relaxed);
}

std::uint64_t WorkloadRecorder::now_rel_ns() const noexcept {
  return rel_ns(util::now_ns());
}

std::uint64_t WorkloadRecorder::rel_ns(std::uint64_t abs_ns) const noexcept {
  return abs_ns - std::min(abs_ns, impl_->epoch_ns);
}

std::uint64_t WorkloadRecorder::next_batch_id() noexcept {
  return impl_->batch_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

void WorkloadRecorder::record(const WorkloadEvent& ev) noexcept {
  impl_->ring.push(ev);
}

std::vector<WorkloadEvent> WorkloadRecorder::drain() const {
  std::vector<WorkloadEvent> out;
  impl_->ring.for_each(
      [&out](std::uint32_t, const WorkloadEvent& ev) { out.push_back(ev); });
  // Rings are per-thread, so the raw concatenation interleaves; the replay
  // engine (and the JSONL schema check) want the arrival process in order.
  std::stable_sort(out.begin(), out.end(),
                   [](const WorkloadEvent& a, const WorkloadEvent& b) {
                     return a.arrival_ns < b.arrival_ns;
                   });
  return out;
}

void WorkloadRecorder::export_jsonl(std::ostream& os) const {
  const std::vector<WorkloadEvent> events = drain();
  write_workload_jsonl(os, events);
}

std::uint64_t WorkloadRecorder::dropped_total() const {
  return impl_->ring.dropped_total();
}

std::uint64_t WorkloadRecorder::recorded_total() const {
  return impl_->ring.recorded_total();
}

void WorkloadRecorder::clear() { impl_->ring.clear(); }

void write_workload_jsonl(std::ostream& os,
                          std::span<const WorkloadEvent> events) {
  os << "{\"schema\":\"phissl-workload-trace\",\"version\":"
     << WorkloadRecorder::kSchemaVersion << ",\"events\":" << events.size()
     << "}\n";
  for (const WorkloadEvent& e : events) {
    os << "{\"arrival_ns\":" << e.arrival_ns << ",\"op\":\"" << to_string(e.op)
       << "\",\"key_bits\":" << e.key_bits
       << ",\"queue_wait_ns\":" << e.queue_wait_ns
       << ",\"batch_id\":" << e.batch_id
       << ",\"lanes_filled\":" << static_cast<unsigned>(e.lanes_filled)
       << ",\"shed\":" << (e.shed ? 1 : 0)
       << ",\"resumed\":" << (e.resumed ? 1 : 0) << "}\n";
  }
}

namespace {

// Minimal flat-JSON-object field extraction for the trace loader. The
// format is machine-written (one object per line, string or unsigned
// integer values, no nesting), so a full JSON parser would be dead weight;
// this still tolerates reordered keys and arbitrary whitespace.

[[noreturn]] void parse_fail(std::size_t lineno, const std::string& why) {
  throw std::runtime_error("workload trace line " + std::to_string(lineno) +
                           ": " + why);
}

/// Position just past `"key":` in `line`, or npos if absent.
std::size_t find_value(const std::string& line, const char* key) {
  const std::string quoted = std::string("\"") + key + "\"";
  std::size_t pos = line.find(quoted);
  if (pos == std::string::npos) return pos;
  pos += quoted.size();
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
  if (pos >= line.size() || line[pos] != ':') return std::string::npos;
  ++pos;
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
  return pos;
}

std::uint64_t require_u64(const std::string& line, const char* key,
                          std::size_t lineno) {
  const std::size_t pos = find_value(line, key);
  if (pos == std::string::npos) {
    parse_fail(lineno, std::string("missing field \"") + key + "\"");
  }
  if (!std::isdigit(static_cast<unsigned char>(line[pos]))) {
    parse_fail(lineno, std::string("field \"") + key + "\" is not an unsigned integer");
  }
  return std::strtoull(line.c_str() + pos, nullptr, 10);
}

std::string require_string(const std::string& line, const char* key,
                           std::size_t lineno) {
  const std::size_t pos = find_value(line, key);
  if (pos == std::string::npos || line[pos] != '"') {
    parse_fail(lineno, std::string("missing string field \"") + key + "\"");
  }
  const std::size_t end = line.find('"', pos + 1);
  if (end == std::string::npos) {
    parse_fail(lineno, std::string("unterminated string field \"") + key + "\"");
  }
  return line.substr(pos + 1, end - pos - 1);
}

bool require_flag(const std::string& line, const char* key,
                  std::size_t lineno) {
  const std::size_t pos = find_value(line, key);
  if (pos == std::string::npos) {
    parse_fail(lineno, std::string("missing field \"") + key + "\"");
  }
  // Accept 0/1 (what we write) and true/false (hand-edited traces).
  if (line.compare(pos, 4, "true") == 0) return true;
  if (line.compare(pos, 5, "false") == 0) return false;
  if (line[pos] == '0') return false;
  if (line[pos] == '1') return true;
  parse_fail(lineno, std::string("field \"") + key + "\" is not a 0/1 flag");
}

}  // namespace

std::vector<WorkloadEvent> load_workload_jsonl(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;

  // Header line: schema + version gate.
  for (;;) {
    if (!std::getline(is, line)) {
      throw std::runtime_error("workload trace: empty input (no header)");
    }
    ++lineno;
    if (!line.empty()) break;
  }
  if (require_string(line, "schema", lineno) != "phissl-workload-trace") {
    parse_fail(lineno, "schema is not \"phissl-workload-trace\"");
  }
  const std::uint64_t version = require_u64(line, "version", lineno);
  if (version != WorkloadRecorder::kSchemaVersion) {
    parse_fail(lineno, "unsupported trace version " + std::to_string(version) +
                           " (loader speaks " +
                           std::to_string(WorkloadRecorder::kSchemaVersion) +
                           ")");
  }

  std::vector<WorkloadEvent> out;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    WorkloadEvent e;
    e.arrival_ns = require_u64(line, "arrival_ns", lineno);
    const std::string op = require_string(line, "op", lineno);
    const auto kind = workload_op_from_string(op);
    if (!kind) parse_fail(lineno, "unknown op \"" + op + "\"");
    e.op = *kind;
    e.key_bits = static_cast<std::uint32_t>(
        require_u64(line, "key_bits", lineno));
    e.queue_wait_ns = require_u64(line, "queue_wait_ns", lineno);
    e.batch_id = require_u64(line, "batch_id", lineno);
    const std::uint64_t lanes = require_u64(line, "lanes_filled", lineno);
    if (lanes > 255) parse_fail(lineno, "lanes_filled out of range");
    e.lanes_filled = static_cast<std::uint8_t>(lanes);
    e.shed = require_flag(line, "shed", lineno);
    e.resumed = require_flag(line, "resumed", lineno);
    out.push_back(e);
  }
  return out;
}

}  // namespace phissl::obs
