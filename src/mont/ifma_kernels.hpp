// vpmadd52-based radix-52 Montgomery kernels (internal).
//
// These are the AVX-512 IFMA twins of the word-generic kernels in
// radix52_kernel.hpp, kept in their own translation unit so the build can
// compile them with -mavx512ifma even when the rest of the tree targets a
// baseline ISA. Nothing here may be called unless BOTH compiled() returns
// true AND util::cpu_features().avx512ifma is set — mont::IfmaAmmCtx /
// mont::BatchIfmaMontCtx own that dispatch.
//
// Representation: 52-bit digits in 64-bit words. Products are accumulated
// SPLIT — low-52 halves of the digit products land in their own column,
// high-52 halves one column up (vpmadd52huq's band) — so no carry
// propagates inside the product sweeps; one normalization per product
// recovers the digits (in latency mode a vector carry round plus a
// bit-mask ripple across the columns, in batch mode lane-wise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phissl::mont::ifma {

/// True iff this binary contains the real vpmadd52 kernels (the TU was
/// compiled with AVX-512 IFMA support).
bool compiled();

// -- Latency mode: almost-Montgomery products of 1 or 2 halves. -----------
// One call is r52::amm_g's product for each of `halves` operand sets of
// the same digit count d, the halves interleaved digit by digit so their
// quotient chains hide each other's latency (IfmaMontCtx runs one half,
// IfmaPairCtx the two CRT halves). Operands are laid out as
// [half 0: hw words][half 1: hw words], hw = d rounded up to 8, each half
// d digits then zeros: a, b (equal for a squaring) and n; k0 holds
// -n^-1 mod 2^52 for each half. out (same layout) is written only after a
// and b are last read, so it may alias either. Digits stay normalized;
// residues stay below 2n when 4n < beta^d. Each half's accumulator takes
// hw / 8 zmm registers, and all halves together at most kAmmRegisters.

inline constexpr std::size_t kAmmRegisters = 20;

/// Largest d the vpmadd52 kernel takes for `halves` halves: 160 digits
/// (8318-bit moduli) for one, 80 for two.
constexpr std::size_t amm_max_digits(std::size_t halves) {
  return 8 * (kAmmRegisters / halves);
}

void amm(const std::uint64_t* a, const std::uint64_t* b,
         const std::uint64_t* n, const std::uint64_t* k0, std::size_t d,
         std::size_t halves, std::uint64_t* out);

// -- Batch mode: 16 independent lanes, band-scanned register accumulation.
// The truncated REDC of radix52_kernel.hpp (r52::mont_mul_g/mont_sqr_g).
// Digit-major transposed layout rep[j*16 + l]: one digit row is two 8-lane
// registers. Output columns are summed in registers, a block of four at a
// time, and each is stored once as a digit row. The band operand is read
// up to kBatchPad digits past either end of its d digits, where it must
// read zero: n and mu (shared plain digit vectors, broadcast) point
// kBatchPad zero words into such a buffer, and the kernels copy the
// per-lane band operand (b for mul, a for sqr) into `pad` —
// (d + 2*kBatchPad) * 16 words of scratch. t: 2*d*16 words, the
// normalized product; q: d*16, the quotient. Every scratch word is
// written before it is read, so none needs zeroing. out: d*16 words,
// written only after a and b are last read, so it may alias either.

inline constexpr std::size_t kBatchPad = 4;

void batch_mul(const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* n, const std::uint64_t* mu, std::size_t d,
               std::uint64_t* pad, std::uint64_t* t, std::uint64_t* q,
               std::uint64_t* out);

void batch_sqr(const std::uint64_t* a, const std::uint64_t* n,
               const std::uint64_t* mu, std::size_t d, std::uint64_t* pad,
               std::uint64_t* t, std::uint64_t* q, std::uint64_t* out);

// -- Constant-time table gather over residues of 64-bit words. ------------
// Needs AVX-512F only. out[0, words) = table[idx_lo]'s words below `split`
// and table[idx_hi]'s from `split` on; every word of each of the `count`
// entries (each at least `words` long) is loaded, and the indices only
// ever enter vector compares, so neither a branch nor an address depends
// on them.

void ct_gather(const std::vector<std::uint64_t>* table, std::size_t count,
               std::size_t words, std::uint32_t idx_lo, std::uint32_t idx_hi,
               std::size_t split, std::uint64_t* out);

}  // namespace phissl::mont::ifma
