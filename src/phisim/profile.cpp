#include "phisim/profile.hpp"

#include <cmath>

#include "mont/modexp.hpp"

namespace phissl::phisim {

KernelProfile& KernelProfile::add(const KernelProfile& other, double n) {
  vec_alu += n * other.vec_alu;
  vec_mul += n * other.vec_mul;
  vec_load += n * other.vec_load;
  vec_store += n * other.vec_store;
  scalar_alu += n * other.scalar_alu;
  scalar_mul32 += n * other.scalar_mul32;
  scalar_mul64 += n * other.scalar_mul64;
  scalar_ldst += n * other.scalar_ldst;
  bytes_touched += n * other.bytes_touched;
  // Composite serial fraction: weight by (approximate) op counts.
  return *this;
}

KernelProfile profile_vector_mont_mul(std::size_t bits, unsigned digit_bits) {
  // Mirrors VectorMontCtx::mul: d outer iterations; per iteration ONE
  // fused vector sweep of pd/16 blocks adding both product rows
  // (a_i*b[j] and q_i*n[j]). Per block: 4 vector loads (b, n, acc lo/hi),
  // 4 vector muls (two mul_lo + mul_hi pairs; native vpmulld/vpmulhud on
  // KNC), 8 vector ALU ops (two add-with-carry idioms), 2 vector stores.
  // Plus per-iteration scalar quotient/carry work and the final
  // normalization pass.
  const double d = std::ceil(static_cast<double>(bits) / digit_bits);
  const double pd = std::ceil(d / 16.0) * 16.0;
  const double blocks = pd / 16.0;

  KernelProfile p;
  p.label = "vector_mont_mul_" + std::to_string(bits);
  const double sweeps = d * blocks;  // fused (a_i*b + q_i*n) sweep
  p.vec_load = sweeps * 4.0;
  p.vec_mul = sweeps * 4.0;
  p.vec_alu = sweeps * 8.0 + 2.0 * d;  // + broadcasts
  p.vec_store = sweeps * 2.0;
  p.scalar_mul32 = d;            // quotient digit q_i
  p.scalar_alu = d * 8.0 + d * 4.0;  // carry ripple + finalize
  p.scalar_ldst = d * 4.0;
  // Columns are independent across lanes and blocks; only the short
  // load->mul->add chain within a block is serial.
  p.serial_fraction = 0.25;
  // Per-op DRAM traffic: the working set (operands, modulus, accumulator
  // columns) is L1/L2-resident across the exponentiation, so only its
  // one-time footprint counts against the bandwidth ceiling.
  p.bytes_touched = (4.0 * pd + 2.0 * (d + pd)) * 4.0;
  return p;
}

KernelProfile profile_scalar32_mont_mul(std::size_t bits) {
  // Mirrors MontCtx32::mul: n outer iterations, each running two n-long
  // word-serial inner loops. Per inner step: 1 mul32, ~3 ALU ops for the
  // add/carry bookkeeping, 2 loads + 1 store.
  const double n = std::ceil(static_cast<double>(bits) / 32.0);
  KernelProfile p;
  p.label = "scalar32_mont_mul_" + std::to_string(bits);
  const double steps = 2.0 * n * n;
  p.scalar_mul32 = steps;
  p.scalar_alu = steps * 3.0 + n * 6.0;
  p.scalar_ldst = steps * 3.0;
  p.serial_fraction = 1.0;  // carry chain serializes every step
  p.bytes_touched = 5.0 * n * 4.0;  // cache-resident working set
  return p;
}

KernelProfile profile_scalar64_mont_mul(std::size_t bits) {
  const double n = std::ceil(static_cast<double>(bits) / 64.0);
  KernelProfile p;
  p.label = "scalar64_mont_mul_" + std::to_string(bits);
  const double steps = 2.0 * n * n;
  p.scalar_mul64 = steps;
  p.scalar_alu = steps * 3.0 + n * 6.0;
  p.scalar_ldst = steps * 3.0;
  p.serial_fraction = 1.0;
  p.bytes_touched = 5.0 * n * 8.0;  // cache-resident working set
  return p;
}

KernelProfile profile_ifma52_mont_mul(std::size_t bits) {
  // Mirrors one half of ifma::amm (IfmaMontCtx::mul on the vpmadd52
  // path): d digit steps over an accumulator of N = ceil(d/8) registers.
  // Per step, a low and a high vpmadd52 of a*b_i and of n*y_i into every
  // register (4N), one valignq per register (N), two broadcasts (b_i,
  // y_i), the a and n blocks (2N loads, shared by the low and high
  // halves), and the scalar column-0 chain: three 64x64 multiplies
  // (a_0*b_i, y_i = s*k0 mod 2^52, n_0*y_i) and about six adds, masks and
  // shifts. Then one carry normalization, about six vector ops and two
  // stores per register.
  const double d = std::ceil((static_cast<double>(bits) + 2.0) / 52.0);
  const double regs = std::ceil(d / 8.0);

  KernelProfile p;
  p.label = "ifma52_mont_mul_" + std::to_string(bits);
  p.vec_mul = 4.0 * regs * d;
  p.vec_alu = (regs + 2.0) * d + 6.0 * regs;
  p.vec_load = 2.0 * regs * d;
  p.vec_store = 2.0 * regs;
  p.scalar_mul64 = 3.0 * d;
  p.scalar_alu = 6.0 * d + regs;
  p.scalar_ldst = d;  // b_i
  // The serial part is the per-digit quotient chain: the nine scalar
  // steps, then y_i's broadcast, its madd into register 0, that
  // register's valignq and the lane-0 read back into the scalar. The
  // other registers' work is independent of it.
  const double chain = 9.0 + 4.0;
  const double per_digit = 4.0 * regs + regs + 2.0 + 2.0 * regs + 9.0 + 1.0;
  p.serial_fraction = chain / per_digit;
  p.bytes_touched = 4.0 * (8.0 * regs) * 8.0;  // a, b, n, out
  return p;
}

KernelProfile profile_modexp(const KernelProfile& mul, std::size_t exp_bits,
                             rsa::Schedule schedule, int window) {
  if (window <= 0) window = mont::choose_window(exp_bits);
  const double bits = static_cast<double>(exp_bits);
  const double w = window;

  KernelProfile p;
  p.label = "modexp_" + mul.label;
  p.serial_fraction = mul.serial_fraction;
  double muls = 0;
  if (schedule == rsa::Schedule::kFixedWindow) {
    // Table build 2^w - 2 muls; bits squarings; one mul per window.
    muls = std::exp2(w) - 2.0 + bits + std::ceil(bits / w);
  } else {
    // Odd-powers table 2^(w-1) muls; bits squarings; one mul per ~(w+1)
    // bits on average for random exponents.
    muls = std::exp2(w - 1.0) + bits + bits / (w + 1.0);
  }
  p.add(mul, muls);
  // Conversions in/out of Montgomery form.
  p.add(mul, 2.0);
  // The working set is shared across all the multiplies (it is the same
  // operands and table), so the DRAM footprint is the per-mul set plus the
  // precomputed table — NOT muls * bytes.
  const double table_entries =
      schedule == rsa::Schedule::kFixedWindow ? std::exp2(w) : std::exp2(w - 1);
  p.bytes_touched = mul.bytes_touched * (1.0 + table_entries / 4.0);
  return p;
}

namespace {

// One Montgomery multiplication at `bits` on the engine's backend. Both
// ifma52 spellings get the vpmadd52 schedule: the model has no profile of
// the portable u128 instantiation.
KernelProfile profile_mont_mul(const rsa::EngineOptions& opts,
                               std::size_t bits) {
  switch (opts.kernel) {
    case rsa::Backend::kScalar32:
      return profile_scalar32_mont_mul(bits);
    case rsa::Backend::kScalar64:
      return profile_scalar64_mont_mul(bits);
    case rsa::Backend::kKncVec:
      return profile_vector_mont_mul(bits, opts.digit_bits);
    case rsa::Backend::kIfma52:
    case rsa::Backend::kIfma52Portable:
      return profile_ifma52_mont_mul(bits);
  }
  return {};
}

}  // namespace

KernelProfile profile_rsa_private(std::size_t bits,
                                  const rsa::EngineOptions& opts) {
  const std::size_t mod_bits = opts.use_crt ? bits / 2 : bits;
  const KernelProfile mul = profile_mont_mul(opts, mod_bits);
  KernelProfile p;
  if (opts.use_crt) {
    // Two half-size exponentiations with ~half-size exponents, plus
    // Garner recombination (one half-size schoolbook multiply and a
    // reduction — small next to the exponentiations).
    const KernelProfile half =
        profile_modexp(mul, mod_bits, opts.schedule, opts.window);
    p.add(half, 2.0);
    p.add(mul, 4.0);  // recombination upper bound
    p.bytes_touched = 2.0 * half.bytes_touched;
    p.label = "rsa" + std::to_string(bits) + "_private_crt";
  } else {
    p = profile_modexp(mul, bits, opts.schedule, opts.window);
    p.label = "rsa" + std::to_string(bits) + "_private_nocrt";
  }
  p.serial_fraction = mul.serial_fraction;
  return p;
}

KernelProfile profile_rsa_public(std::size_t bits,
                                 const rsa::EngineOptions& opts) {
  const KernelProfile mul = profile_mont_mul(opts, bits);
  // e = 65537 = 2^16 + 1: 16 squarings + 1 multiply + conversions.
  KernelProfile p;
  p.label = "rsa" + std::to_string(bits) + "_public";
  p.serial_fraction = mul.serial_fraction;
  p.add(mul, 19.0);
  return p;
}

}  // namespace phissl::phisim
