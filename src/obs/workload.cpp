#include "obs/workload.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>
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
  // Rings are per-thread, so the raw concatenation interleaves; the JSONL
  // schema check wants the arrival process in order.
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

}  // namespace phissl::obs
