// Workload trace recorder: per-thread ring-buffered, lock-free capture of
// the REQUEST stream the batching subsystems see — one event per private
// op (sign / raw private_op / DHE server signature), carrying its arrival
// time, the queue wait it paid, the batch it rode in, and whether the
// connection was shed or resumed instead.
//
// The tracer (trace.hpp) answers "where did the nanoseconds go inside the
// process"; this recorder answers "what did the OFFERED LOAD look like" —
// the arrival process, the op mix and per-batch occupancy of a run, for
// offline analysis of the exported file.
//
// Record-path contract mirrors Tracer, and so does the buffer (one
// obs::ThreadRing each): one relaxed atomic load when recording is off;
// when on, a store into this thread's ring plus a release head bump — no
// lock, no allocation. Rings overwrite OLDEST events on wraparound; the
// drop total is visible via dropped_total() and as the
// phissl_workload_dropped_total registry counter. Under
// PHISSL_OBS=OFF every emission site compiles out
// (PHISSL_OBS_WORKLOAD_ENABLED folds to false); the recorder itself
// always builds.
//
// Export format is versioned JSONL (one JSON object per line):
//
//   {"schema":"phissl-workload-trace","version":1,"events":N}
//   {"arrival_ns":0,"op":"sign","key_bits":1024,"queue_wait_ns":212000,
//    "batch_id":1,"lanes_filled":16,"shed":0,"resumed":0}
//   ...
//
// validated by tools/check_trace_json.py --workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#ifndef PHISSL_OBS_ENABLED
#define PHISSL_OBS_ENABLED 1
#endif

namespace phissl::obs {

/// What kind of private-key operation an event describes.
enum class WorkloadOp : std::uint8_t {
  kSign = 0,       ///< RSASSA-PKCS1-v1_5 signature (SignService::sign)
  kPrivateOp = 1,  ///< raw x^d mod n (ClientKeyExchange decryption path)
  kDheSign = 2,    ///< DHE-RSA ServerKeyExchange signature
};

/// Stable wire name ("sign" / "private_op" / "dhe_sign").
const char* to_string(WorkloadOp op) noexcept;

/// One workload event. For a dispatched op, queue_wait_ns / batch_id /
/// lanes_filled describe the batch it rode in (batch_id is a nonzero
/// process-wide dispatch ordinal; lanes_filled is the REAL lanes of that
/// dispatch, so occupancy is reconstructible per batch). A scalar-path op
/// (the reactor's scalar decrypter, or a SignService flush run
/// single-stream) records batch_id 0, lanes 0.
/// `shed` marks an arrival rejected by admission control before any op was
/// submitted; `resumed` marks an abbreviated handshake whose private op
/// was AVOIDED via session resumption — both carry arrival_ns only.
struct WorkloadEvent {
  std::uint64_t arrival_ns = 0;     ///< submit time, ns since recorder epoch
  std::uint64_t queue_wait_ns = 0;  ///< submit -> batch dispatch
  std::uint64_t batch_id = 0;       ///< 0 = not batched
  std::uint32_t key_bits = 0;       ///< modulus size of the key involved
  WorkloadOp op = WorkloadOp::kSign;
  std::uint8_t lanes_filled = 0;    ///< real lanes in its batch; 0 = unbatched
  bool shed = false;
  bool resumed = false;
};

class WorkloadRecorder {
 public:
  /// Events kept per thread before the oldest are overwritten. Bigger than
  /// the tracer ring (events are 32 bytes and a saturated service emits
  /// one per request, not one per kernel phase).
  static constexpr std::size_t kRingCapacity = 65536;
  /// Bumped when WorkloadEvent / the JSONL schema changes shape.
  static constexpr int kSchemaVersion = 1;

  /// Process-wide recorder (leaked, like Tracer::global()).
  static WorkloadRecorder& global();

  /// Runtime master switch (off by default; harness flag --workload turns
  /// it on). Emission sites check this before building an event.
  [[nodiscard]] bool enabled() const noexcept;
  void set_recording(bool on) noexcept;

  /// Monotonic ns since the recorder epoch (pinned at first use), for
  /// arrival stamps. Also converts absolute util::now_ns() values taken
  /// earlier: rel_ns(abs) saturates at 0 for pre-epoch times.
  [[nodiscard]] std::uint64_t now_rel_ns() const noexcept;
  [[nodiscard]] std::uint64_t rel_ns(std::uint64_t abs_ns) const noexcept;

  /// Process-wide nonzero batch ordinal for WorkloadEvent::batch_id.
  std::uint64_t next_batch_id() noexcept;

  /// Appends one event to the calling thread's ring. Lock-free.
  void record(const WorkloadEvent& ev) noexcept;

  /// Merged snapshot of every ring, sorted by arrival_ns (rings are
  /// per-thread, so raw order interleaves). Recording may continue
  /// concurrently; quiesce first when exactness matters.
  [[nodiscard]] std::vector<WorkloadEvent> drain() const;

  /// Versioned JSONL export of drain() (see the file comment).
  void export_jsonl(std::ostream& os) const;

  /// Events overwritten by ring wraparound, across all threads. Also
  /// surfaced as the phissl_workload_dropped_total registry counter
  /// (which, being monotone, survives clear()).
  [[nodiscard]] std::uint64_t dropped_total() const;
  /// Events ever recorded (including since-dropped ones).
  [[nodiscard]] std::uint64_t recorded_total() const;

  /// Test/bench helper: rewinds every ring. Not safe against concurrent
  /// record().
  void clear();

 private:
  WorkloadRecorder();
  struct Impl;
  Impl* impl_;
};

/// Writes `events` in the JSONL trace format (header + one line each).
void write_workload_jsonl(std::ostream& os,
                          std::span<const WorkloadEvent> events);

}  // namespace phissl::obs

// Emission-site guard: false (dead-code-eliminated) when the obs toggle is
// compiled out, the recorder's enabled flag otherwise. Usage:
//   if (PHISSL_OBS_WORKLOAD_ENABLED) { ...build event...; recorder.record(ev); }
#if PHISSL_OBS_ENABLED
#define PHISSL_OBS_WORKLOAD_ENABLED \
  (::phissl::obs::WorkloadRecorder::global().enabled())
#else
#define PHISSL_OBS_WORKLOAD_ENABLED false
#endif
