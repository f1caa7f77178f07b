// Kernel instruction profiles: the instruction mix one invocation of each
// PhiOpenSSL / baseline kernel executes, derived from the actual loop
// structure of the implementations in src/mont. These are the inputs the
// core/chip models consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "rsa/engine.hpp"

namespace phissl::phisim {

/// Instruction mix for one kernel invocation (e.g. one Montgomery multiply
/// or one full modular exponentiation).
struct KernelProfile {
  std::string label;

  double vec_alu = 0;
  double vec_mul = 0;
  double vec_load = 0;
  double vec_store = 0;
  double scalar_alu = 0;
  double scalar_mul32 = 0;
  double scalar_mul64 = 0;
  double scalar_ldst = 0;

  /// Fraction of instruction latency exposed as pipeline stalls (serial
  /// dependency chains). 1.0 = fully serial (word-serial CIOS carry
  /// chain), lower = independent work available to the scheduler
  /// (unrolled vector columns).
  double serial_fraction = 1.0;

  /// Bytes moved to/from memory per invocation (for the bandwidth model).
  double bytes_touched = 0;

  /// Accumulates another profile n times (for composing modexp from muls).
  KernelProfile& add(const KernelProfile& other, double n = 1.0);
};

/// Profile of one vectorized Montgomery multiplication (VectorMontCtx::mul)
/// for a modulus of `bits` bits at the given digit width.
KernelProfile profile_vector_mont_mul(std::size_t bits, unsigned digit_bits = 27);

/// Profile of one scalar CIOS Montgomery multiplication with 32-bit limbs.
KernelProfile profile_scalar32_mont_mul(std::size_t bits);

/// Profile of one scalar CIOS Montgomery multiplication with 64-bit limbs.
KernelProfile profile_scalar64_mont_mul(std::size_t bits);

/// Profile of one radix-2^52 almost-Montgomery multiplication
/// (IfmaMontCtx::mul on the vpmadd52 path: 4*N*d vpmadd52 and N*d valignq
/// over N = ceil(d/8) accumulator registers, with the per-digit scalar
/// quotient chain as its serial part).
KernelProfile profile_ifma52_mont_mul(std::size_t bits);

/// Profile of a full modular exponentiation: `exp_bits`-bit exponent over
/// the given per-multiply profile and schedule.
KernelProfile profile_modexp(const KernelProfile& mul, std::size_t exp_bits,
                             rsa::Schedule schedule, int window);

/// Profile of one RSA private-key operation for a key of `bits` bits under
/// the given engine options (kernel, schedule, CRT).
KernelProfile profile_rsa_private(std::size_t bits,
                                  const rsa::EngineOptions& opts);

/// Profile of one RSA public-key operation (e = 65537).
KernelProfile profile_rsa_public(std::size_t bits,
                                 const rsa::EngineOptions& opts);

}  // namespace phissl::phisim
