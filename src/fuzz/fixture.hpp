// Shared deterministic fixtures for the fuzz targets and their seed
// corpus. targets.cpp and seeds.cpp must agree on every constant here:
// a sealed-record seed only authenticates in the target if both sides
// keyed the channel identically, and a handshake transcript only replays
// to kEstablished if the capturing server and the target server draw the
// same randoms. None of this is secret material — fuzz fixtures only.
#pragma once

#include <cstdint>

#include "rsa/engine.hpp"
#include "ssl/record.hpp"

namespace phissl::fuzz {

inline constexpr std::uint8_t kFuzzEncKey[ssl::kEncKeySize] = {
    0xa1, 0xb2, 0xc3, 0xd4, 0xe5, 0xf6, 0x07, 0x18,
    0x29, 0x3a, 0x4b, 0x5c, 0x6d, 0x7e, 0x8f, 0x90};

inline constexpr std::uint8_t kFuzzMacKey[ssl::kMacKeySize] = {
    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa,
    0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x0f, 0x1e, 0x2d, 0x3c, 0x4b, 0x5a,
    0x69, 0x78, 0x87, 0x96, 0xa5, 0xb4, 0xc3, 0xd2, 0xe1, 0xf0};

/// Seed for every util::Rng a target constructs (record IVs, the server
/// connection's randoms).
inline constexpr std::uint64_t kFuzzRngSeed = 0x5eed5eed5eed5eedULL;

/// Client-side RNG seed used when capturing handshake transcripts.
inline constexpr std::uint64_t kFuzzClientSeed = 0xc11e27c11e27c11eULL;

/// 512-bit engine shared by the handshake target and transcript capture:
/// small enough that a full replayed handshake is milliseconds, cached
/// (rsa::test_key) so construction cost is paid once per process.
const rsa::Engine& fuzz_engine();

}  // namespace phissl::fuzz
