// Structure-aware fuzzing targets: one function per attack surface, each
// compiled two ways from this single registry.
//
//   - libFuzzer entry points (clang only, -DPHISSL_FUZZ_LIBFUZZER=ON):
//     libfuzzer_main.cpp wraps one target per binary and plugs the framed
//     mutators from mutate.hpp in as LLVMFuzzerCustomMutator.
//   - deterministic corpus replayers (every toolchain): replay_main.cpp
//     runs each checked-in seed plus a fixed fan of deterministic
//     mutations through the same target functions, registered in ctest so
//     the corpus regression-tests the parsers even where clang (and hence
//     libFuzzer) is unavailable.
//
// Every target is deterministic: fixed keys, fixed RNG seeds, no wall
// clock. A crash reproduces from the input bytes alone. Targets exercise
// the code under test and assert cheap invariants (round-trips, poison
// latching, canonical re-encoding); memory errors are the sanitizers' job.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace phissl::fuzz {

/// One fuzz entry point: consumes arbitrary bytes, never crashes on any
/// input (uncaught exceptions and assertion failures are findings).
using TargetFn = void (*)(std::span<const std::uint8_t> data);

struct TargetInfo {
  std::string_view name;
  TargetFn fn;
  /// True when inputs are [type:1][len:3 BE][body] frame streams, which
  /// enables the structure-aware mutators (length fixup, type swap,
  /// boundary truncation) instead of plain byte mutations.
  bool framed;
};

/// All registered targets, in a fixed order.
std::span<const TargetInfo> targets();

/// Lookup by name; nullptr when unknown.
const TargetInfo* find_target(std::string_view name);

// The individual targets (also reachable through the registry).
void target_frame_reader(std::span<const std::uint8_t> data);
void target_record_cbc(std::span<const std::uint8_t> data);
void target_handshake(std::span<const std::uint8_t> data);
void target_der_key(std::span<const std::uint8_t> data);
void target_b64hex(std::span<const std::uint8_t> data);

/// Deterministic seed corpus for `target` — the same inputs checked in
/// under tests/corpus/<target>/ (fuzz_seed_gen writes them out). Valid
/// transcripts, sealed records, and well-formed keys: starting points the
/// mutators can corrupt one field at a time.
std::vector<std::vector<std::uint8_t>> seed_inputs(std::string_view target);

}  // namespace phissl::fuzz
