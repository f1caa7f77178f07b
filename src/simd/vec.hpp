// VecU32x16: a 512-bit vector of 16 unsigned 32-bit lanes, restricted to
// the operation set the Xeon Phi (KNC) VPU actually provided.
//
// KNC predates AVX-512 and had its own 512-bit ISA (IMCI): vpaddd, vpsubd,
// vpmulld (32x32 -> low 32), vpmulhud (32x32 -> high 32), logical ops,
// per-lane shifts, 16-bit write masks on every instruction, and lane
// compares producing masks. Notably absent: 64-bit lane multiplies and
// IFMA. This type exposes exactly that contract so the Montgomery kernels
// in src/mont are forced into KNC-legal schedules (the point of the paper).
//
// Backends (chosen at compile time from __AVX512F__, identical semantics):
//   - AVX-512F  : one __m512i   (closest to real KNC hardware)
//   - portable  : plain scalar loops, on every other target (AVX2 hosts
//                 included); simd_test checks either one lane by lane
//                 against the scalar contract
#pragma once

#include <array>
#include <cstdint>

#if defined(__AVX512F__)
#define PHISSL_SIMD_AVX512 1
#include <immintrin.h>
#endif

namespace phissl::simd {

/// Name of the backend compiled into this build ("avx512" or "scalar").
const char* backend_name();

/// 16-bit lane mask, one bit per lane (bit i = lane i), as produced by KNC
/// vector compares and consumed by masked operations.
using Mask16 = std::uint16_t;

struct VecU32x16 {
  static constexpr std::size_t kLanes = 16;

#if PHISSL_SIMD_AVX512
  __m512i v;
#else
  std::array<std::uint32_t, kLanes> v;
#endif

  // -- Construction / memory -------------------------------------------------

  static VecU32x16 zero();
  static VecU32x16 broadcast(std::uint32_t x);
  /// Unaligned load of 16 consecutive u32.
  static VecU32x16 load(const std::uint32_t* p);
  /// Unaligned store of 16 consecutive u32.
  void store(std::uint32_t* p) const;

  [[nodiscard]] std::uint32_t lane(std::size_t i) const;
  [[nodiscard]] std::array<std::uint32_t, kLanes> to_array() const;

  // -- KNC arithmetic (all lane-wise, wrapping mod 2^32) ----------------------

  friend VecU32x16 add(VecU32x16 a, VecU32x16 b);        // vpaddd
  friend VecU32x16 sub(VecU32x16 a, VecU32x16 b);        // vpsubd
  friend VecU32x16 mul_lo(VecU32x16 a, VecU32x16 b);     // vpmulld
  friend VecU32x16 mul_hi(VecU32x16 a, VecU32x16 b);     // vpmulhud
  friend VecU32x16 bit_and(VecU32x16 a, VecU32x16 b);    // vpandd
  friend VecU32x16 bit_or(VecU32x16 a, VecU32x16 b);     // vpord
  friend VecU32x16 shr(VecU32x16 a, unsigned s);         // vpsrld (s < 32)
  friend VecU32x16 shl(VecU32x16 a, unsigned s);         // vpslld (s < 32)

  // -- Compares and masked ops -----------------------------------------------

  friend Mask16 cmp_lt_u32(VecU32x16 a, VecU32x16 b);    // vpcmpltud
  /// Lanes where mask bit set take a, else b (KNC write-mask blend).
  friend VecU32x16 select(Mask16 mask, VecU32x16 a, VecU32x16 b);
  /// a + b only in masked lanes; unmasked lanes keep a.
  friend VecU32x16 masked_add(Mask16 mask, VecU32x16 a, VecU32x16 b);
};

/// Adds the 64-bit product pair (p_lo, p_hi) into the 64-bit column
/// accumulators (acc_lo, acc_hi), where each column j is the value
/// acc_lo[j] + 2^32 * acc_hi[j]. Carry out of the low word is detected via
/// an unsigned compare and folded into the high word — the KNC-legal
/// add-with-carry idiom used throughout the vector Montgomery kernel.
inline void add_wide_product(VecU32x16& acc_lo, VecU32x16& acc_hi,
                             VecU32x16 p_lo, VecU32x16 p_hi) {
  const VecU32x16 sum = add(acc_lo, p_lo);
  const Mask16 carry = cmp_lt_u32(sum, acc_lo);
  acc_lo = sum;
  acc_hi = add(acc_hi, p_hi);
  acc_hi = masked_add(carry, acc_hi, VecU32x16::broadcast(1));
}

}  // namespace phissl::simd

#include "simd/vec_impl.hpp"  // IWYU pragma: keep
