#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/thread_ring.hpp"

namespace phissl::obs {

namespace {

std::atomic<bool> g_tracing{false};

/// Epoch anchor so trace timestamps start near zero (Perfetto renders
/// absolute steady_clock values poorly).
std::uint64_t epoch_ns() {
  static const std::uint64_t e = util::now_ns();
  return e;
}

// Minimal JSON string escaper; span names are static literals we control,
// but a stray quote must not corrupt the whole trace file.
void write_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

}  // namespace

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void set_tracing(bool on) noexcept {
  if (on) (void)epoch_ns();  // pin the epoch before the first span
  g_tracing.store(on, std::memory_order_relaxed);
}

struct Tracer::Impl {
  ThreadRing<SpanRecord, kRingCapacity> ring{Registry::global().counter(
      "phissl_trace_dropped_total",
      "tracer spans overwritten by ring wraparound")};
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::global() {
  static Tracer* t = new Tracer;  // leaked: threads may outlive statics
  return *t;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, const char* arg_name,
                    std::uint64_t arg) noexcept {
  const std::uint64_t rel_start = start_ns - std::min(start_ns, epoch_ns());
  impl_->ring.push(SpanRecord{.name = name,
                              .arg_name = arg_name,
                              .arg = arg,
                              .start_ns = rel_start,
                              .dur_ns = dur_ns});
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  impl_->ring.for_each([&](std::uint32_t tid, const SpanRecord& r) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"";
    write_escaped(os, r.name);
    // ts/dur are microseconds; fixed %.3f keeps ns resolution at any
    // trace length (default ostream precision would truncate).
    char times[80];
    std::snprintf(times, sizeof times,
                  "\",\"cat\":\"phissl\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.dur_ns) * 1e-3);
    os << times << ",\"pid\":1,\"tid\":" << tid;
    if (r.arg_name != nullptr) {
      os << ",\"args\":{\"";
      write_escaped(os, r.arg_name);
      os << "\":" << r.arg << "}";
    }
    os << "}";
  });
  // Drop total as a Chrome counter event, so a wrapped trace is visibly
  // truncated rather than silently complete.
  os << (first ? "\n" : ",\n")
     << "{\"name\":\"trace_dropped_spans\",\"ph\":\"C\",\"ts\":0,\"pid\":1,"
        "\"args\":{\"dropped\":"
     << dropped_total() << "}}";
  os << "\n]}\n";
}

std::uint64_t Tracer::dropped_total() const {
  return impl_->ring.dropped_total();
}

std::uint64_t Tracer::recorded_total() const {
  return impl_->ring.recorded_total();
}

void Tracer::clear() { impl_->ring.clear(); }

void write_chrome_trace(std::ostream& os) {
  Tracer::global().write_chrome_trace(os);
}

}  // namespace phissl::obs
