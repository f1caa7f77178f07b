// Scoped-span tracer: per-thread fixed-capacity ring buffers of
// {name, start_ns, dur_ns, arg} records, drained on demand to Chrome
// trace_event JSON (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// Record path: one relaxed atomic load (the global enable flag) when
// tracing is off; when on, two steady_clock reads plus a push into this
// thread's ring (obs/thread_ring.hpp: no lock, no allocation). The ring's
// index is the span's Chrome-trace tid. When a ring wraps, the OLDEST
// spans are overwritten and counted in phissl_trace_dropped_total; the
// drained JSON reports the total as a Chrome counter event.
//
// Span names (and arg names) must be string literals / static-lifetime
// strings: records store the pointer, not a copy.
//
// The PHISSL_OBS CMake toggle compiles every PHISSL_OBS_SPAN call site
// down to nothing; with it on but tracing not enabled at runtime
// (obs::set_tracing), a span is a single relaxed load + branch.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "util/timing.hpp"  // header-only; no link dependency

#ifndef PHISSL_OBS_ENABLED
#define PHISSL_OBS_ENABLED 1
#endif

namespace phissl::obs {

/// Runtime master switch for span recording (off by default; metrics are
/// unaffected). Harness flag --trace turns it on.
bool tracing_enabled() noexcept;
void set_tracing(bool on) noexcept;

/// One completed span. Times are ns relative to the tracer epoch (first
/// use in the process); the recording thread is the ring it sits in.
struct SpanRecord {
  const char* name = nullptr;      // static-lifetime
  const char* arg_name = nullptr;  // optional numeric arg; nullptr if none
  std::uint64_t arg = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

class Tracer {
 public:
  /// Spans kept per thread before the oldest are overwritten.
  static constexpr std::size_t kRingCapacity = 8192;

  /// Process-wide tracer (leaked, like Registry::global()).
  static Tracer& global();

  /// Appends one span to the calling thread's ring. Lock-free; called by
  /// ~ScopedSpan, or directly by tests/benches.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              const char* arg_name = nullptr, std::uint64_t arg = 0) noexcept;

  /// Drains every ring into Chrome trace-event JSON ("X" complete events,
  /// ts/dur in microseconds, plus a "C" counter event carrying the drop
  /// total). Recording may continue concurrently; spans overwritten while
  /// draining can tear, so quiesce first when exactness matters.
  void write_chrome_trace(std::ostream& os) const;

  /// Spans overwritten by ring wraparound, across all threads.
  [[nodiscard]] std::uint64_t dropped_total() const;
  /// Spans ever recorded (including since-dropped ones).
  [[nodiscard]] std::uint64_t recorded_total() const;

  /// Test/bench helper: rewinds every ring (drops all recorded spans and
  /// the drop counts). Not safe against concurrent record().
  void clear();

 private:
  Tracer();
  struct Impl;
  Impl* impl_;
};

/// RAII span: captures the enabled flag and start time at construction,
/// records into the tracer at destruction. Constructing with tracing
/// disabled costs one relaxed load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept
      : ScopedSpan(name, nullptr, 0) {}

  ScopedSpan(const char* name, const char* arg_name,
             std::uint64_t arg) noexcept
      : name_(name), arg_name_(arg_name), arg_(arg),
        active_(tracing_enabled()),
        start_ns_(active_ ? util::now_ns() : 0) {}

  ~ScopedSpan() {
    if (active_) {
      Tracer::global().record(name_, start_ns_, util::now_ns() - start_ns_,
                              arg_name_, arg_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  std::uint64_t arg_;
  bool active_;
  std::uint64_t start_ns_;
};

/// Writes the global tracer's Chrome trace JSON.
void write_chrome_trace(std::ostream& os);

}  // namespace phissl::obs

// Statement macro: opens a scoped span for the rest of the enclosing
// block. Usage: PHISSL_OBS_SPAN("rsa.mod_exp_p"); or with one numeric
// argument: PHISSL_OBS_SPAN("svc.batch", "lanes", real_lanes);
#if PHISSL_OBS_ENABLED
#define PHISSL_OBS_CONCAT_INNER(a, b) a##b
#define PHISSL_OBS_CONCAT(a, b) PHISSL_OBS_CONCAT_INNER(a, b)
#define PHISSL_OBS_SPAN(...) \
  ::phissl::obs::ScopedSpan PHISSL_OBS_CONCAT(phissl_obs_span_, \
                                              __LINE__)(__VA_ARGS__)
#else
#define PHISSL_OBS_SPAN(...) \
  do {                       \
  } while (0)
#endif
