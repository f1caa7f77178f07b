// Word-generic radix-2^52 Montgomery kernels, and the one digit packer.
//
// Digits are 52-bit values held in 64-bit words; products are accumulated
// in 128-bit columns, so carries propagate once per normalization pass
// instead of once per word (see DESIGN.md for the math). Two products:
//
//   amm_g — the digit-serial almost-Montgomery product every ifma52
//       latency product runs (IfmaMontCtx one modulus at a time,
//       IfmaPairCtx both CRT halves; vpmadd52 twin ifma::amm). Residues
//       stay in [0, 2n) and nothing subtracts until they leave Montgomery
//       form.
//   mont_mul_g / mont_sqr_g — the TRUNCATED REDC the 16-lane batch runs
//       (BatchIfmaMontCtx; vpmadd52 twins ifma::batch_mul/batch_sqr),
//       whose REDC never forms the full quotient product Q*N:
//
//   T = A*B, split T = T_hi*R + T_lo (R = beta^d, beta = 2^52)
//   Q = T_lo * mu mod R            mu = -N^-1 mod R, d digits
//       -> only the LOWER triangle of the digit products (columns < d);
//          exact because column carries propagate upward only.
//   result = T_hi + floor(Q*N / R) + c3
//       -> only the UPPER columns (>= d-2) of Q*N are computed. c3, the
//          carry out of the discarded low half, is recovered exactly from
//          columns d-2 and d-1 alone: c3 = ceil(partial) where partial is
//          the two-column fixed-point estimate. The dropped tail is
//          delta < 2d/beta < 1, and T_lo + Q*N === 0 (mod R) makes the
//          true carry an integer, so the ceiling is always exact.
//
// Templated over the 64-bit word type W64 and its 128-bit widening type
// W128 and instantiated twice, exactly like scalar32_kernel.hpp:
//   - std::uint64_t / unsigned __int128 (the shipped portable fallback),
//   - ct::Tainted<u64> / ct::Tainted<u128> (the shadow-taint checker's
//     TaintAmmCtx52 and TaintCtx52, which replay THIS code over poisoned
//     operands).
// Every step is branch-free on the data path: the low-half carry uses
// is_nonzero64 (a value computation) and the reductions are masked
// constant-time conditional subtracts.
//
// phissl:ct-kernel — tools/phissl_lint.py bans raw index extraction here.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/kernels_generic.hpp"

namespace phissl::mont::r52 {

inline constexpr unsigned kDigitBits = 52;
inline constexpr std::uint64_t kDigitMask =
    (std::uint64_t{1} << kDigitBits) - 1;

/// Writes the d 52-bit digits of x (non-negative, below beta^d) to
/// out[0], out[stride], ..., out[(d - 1) * stride].
inline void pack52(const bigint::BigInt& x, std::size_t d, std::uint64_t* out,
                   std::size_t stride = 1) {
  assert(!x.is_negative() && x.bit_length() <= kDigitBits * d);
  for (std::size_t j = 0; j < d; ++j) {
    // bits_window reads at most 32 bits: a 32-bit low and a 20-bit high
    // part.
    const std::size_t lo = j * kDigitBits;
    out[j * stride] =
        x.bits_window(lo, 32) |
        (static_cast<std::uint64_t>(x.bits_window(lo + 32, 20)) << 32);
  }
}

/// out = the value of the d 52-bit digits x[0], x[stride], ...; u32 is
/// scratch.
inline void unpack52(const std::uint64_t* x, std::size_t d,
                     std::size_t stride, std::vector<std::uint32_t>& u32,
                     bigint::BigInt& out) {
  // assign_from_digits takes digits of at most 32 bits: two 26-bit halves
  // per 52-bit digit.
  constexpr std::uint32_t kHalfMask = (1u << 26) - 1;
  u32.resize(2 * d);
  for (std::size_t j = 0; j < d; ++j) {
    const std::uint64_t v = x[j * stride];
    u32[2 * j] = static_cast<std::uint32_t>(v) & kHalfMask;
    u32[2 * j + 1] = static_cast<std::uint32_t>(v >> 26) & kHalfMask;
  }
  out.assign_from_digits(u32, 26);
}

/// Constant-time conditional subtract: reduces t[0..d) (plus the overflow
/// word `top`, 0 or 1) from [0, 2n) to [0, n). A full branchless borrow
/// scan decides, then the subtraction always runs with n masked in or out.
template <typename W64>
void ct_sub_mod52_g(W64* t, W64 top, const W64* n, std::size_t d) {
  using bigint::kernels::is_nonzero64;
  W64 borrow{};
  for (std::size_t j = 0; j < d; ++j) {
    const W64 diff = t[j] - n[j] - borrow;
    borrow = (diff >> 63) & 1;
  }
  // Subtract iff the overflow word is set or t >= n (no borrow emerged).
  const W64 ge = is_nonzero64(top | (W64{1} - borrow));
  const W64 mask = W64{} - ge;
  borrow = W64{};
  for (std::size_t j = 0; j < d; ++j) {
    const W64 diff = t[j] - (n[j] & mask) - borrow;
    t[j] = diff & kDigitMask;
    borrow = (diff >> 63) & 1;
  }
}

/// Truncated Montgomery reduction of the normalized double-length digit
/// vector t[0..2d) (each < 2^52): writes (T * R^-1 mod n) as d digits into
/// `out`. cols is 2d columns of scratch, q is d digits of scratch.
template <typename W64, typename W128 = bigint::kernels::wide128_t<W64>>
void redc_trunc_g(const W64* t, const W64* n, const W64* mu, std::size_t d,
                  W128* cols, W64* q, W64* out) {
  using bigint::kernels::is_nonzero64;
  using bigint::kernels::lo64;
  using bigint::kernels::peek64;
  using bigint::kernels::w128;
  using bigint::kernels::wmul128;
  assert(d >= 3);

  // Q = T_lo * mu mod R: lower triangle only (columns < d). Column carries
  // only move upward, so dropping columns >= d loses nothing mod R.
  for (std::size_t k = 0; k < d; ++k) cols[k] = W128{};
  for (std::size_t i = 0; i < d; ++i) {
    const W64 ti = t[i];
    for (std::size_t j = 0; j < d - i; ++j) {
      cols[i + j] = cols[i + j] + wmul128(ti, mu[j]);
    }
  }
  {
    W128 carry{};
    for (std::size_t k = 0; k < d; ++k) {
      const W128 v = cols[k] + carry;
      q[k] = lo64(v) & kDigitMask;
      carry = v >> kDigitBits;  // dropped past column d-1: mod R
    }
  }

  // Upper product: every Q*N digit product at band >= d-2. Bands d-2 and
  // d-1 feed the carry recovery; bands >= d are the result contribution.
  for (std::size_t k = 0; k < 2 * d; ++k) cols[k] = W128{};
  for (std::size_t i = 0; i < d; ++i) {
    const W64 qi = q[i];
    const std::size_t jstart = (i + 2 >= d) ? 0 : d - 2 - i;
    for (std::size_t j = jstart; j < d; ++j) {
      cols[i + j] = cols[i + j] + wmul128(qi, n[j]);
    }
  }

  // Exact low-half carry c3 = (T_lo + Q*N)/R from columns d-2, d-1 alone:
  //   x + y*beta = the two-column partial value (x, y < 2^111)
  //   c3 = ceil((x + y*beta) / beta^2), always exact (see file comment).
  const W128 x = cols[d - 2] + w128(t[d - 2]);
  const W128 y = cols[d - 1] + w128(t[d - 1]);
  const W128 y_lo = y & kDigitMask;               // low 52 bits of y
  const W128 s = (y_lo << kDigitBits) + x;        // < 2^112, fits W128
  // frac = s mod 2^104 as two pieces so no 128-bit literal is needed.
  const W64 frac_low = lo64(s);
  const W64 frac_mid = lo64(s >> 64) & ((std::uint64_t{1} << 40) - 1);
  const W64 c3 = lo64(y >> kDigitBits) + lo64(s >> 104) +
                 is_nonzero64(frac_low | frac_mid);

  // result = T_hi + floor(Q*N / R) + c3, then one conditional subtract
  // (result < 2n because T < n^2 and Q < R).
  W128 carry = w128(c3);
  for (std::size_t k = 0; k < d; ++k) {
    const W128 v = cols[d + k] + w128(t[d + k]) + carry;
    out[k] = lo64(v) & kDigitMask;
    carry = v >> kDigitBits;
  }
  const W64 top = lo64(carry);
  assert(peek64(top) <= 1);
  ct_sub_mod52_g(out, top, n, d);
}

/// Carry-normalizes `count` 128-bit columns into 52-bit digits. The final
/// carry must be zero (the caller sizes the column vector to the value).
template <typename W64, typename W128 = bigint::kernels::wide128_t<W64>>
void normalize_cols_g(const W128* cols, std::size_t count, W64* t) {
  using bigint::kernels::lo64;
  using bigint::kernels::peek64;
  W128 carry{};
  for (std::size_t k = 0; k < count; ++k) {
    const W128 v = cols[k] + carry;
    t[k] = lo64(v) & kDigitMask;
    carry = v >> kDigitBits;
  }
  assert(peek64(lo64(carry)) == 0);
}

/// out = a*b*R^-1 mod n over d-digit packed radix-52 operands.
/// cols: 2d scratch columns; t: 2d digit scratch; q: d digit scratch.
/// out (d digits) may alias a or b — it is written only at the end.
template <typename W64, typename W128 = bigint::kernels::wide128_t<W64>>
void mont_mul_g(const W64* a, const W64* b, const W64* n, const W64* mu,
                std::size_t d, W128* cols, W64* t, W64* q, W64* out) {
  using bigint::kernels::wmul128;
  for (std::size_t k = 0; k < 2 * d; ++k) cols[k] = W128{};
  for (std::size_t i = 0; i < d; ++i) {
    const W64 ai = a[i];
    for (std::size_t j = 0; j < d; ++j) {
      cols[i + j] = cols[i + j] + wmul128(ai, b[j]);
    }
  }
  normalize_cols_g<W64, W128>(cols, 2 * d, t);
  redc_trunc_g<W64, W128>(t, n, mu, d, cols, q, out);
}

/// Almost-Montgomery product (every ifma52 latency product, one modulus
/// at a time): out = (a*b + Y*n) / R with R = beta^d and Y < R
/// the unique value that makes the sum divisible, built one quotient digit
/// per digit of b: y_i = (acc_0 * k0) mod beta, k0 = -n^-1 mod beta. No
/// conditional subtract: when a, b < 2n and 4n < R, out < (4n^2 + R*n)/R
/// < 2n, so residues stay in [0, 2n) and the output feeds the next product
/// as is. Y is unique, so every schedule of this sum (the vpmadd52 kernel
/// ifma::amm included) yields these exact digits. acc: 2d columns of
/// scratch. out (d digits) may alias a or b — it is written only at the
/// end.
template <typename W64, typename W128 = bigint::kernels::wide128_t<W64>>
void amm_g(const W64* a, const W64* b, const W64* n, W64 k0, std::size_t d,
           W128* acc, W64* out) {
  using bigint::kernels::lo64;
  using bigint::kernels::wmul128;
  for (std::size_t k = 0; k < 2 * d; ++k) acc[k] = W128{};
  // Digit i's products land at columns i .. i+d-1, so the sum never
  // shifts; each column sums at most 2d products, well inside 128 bits.
  for (std::size_t i = 0; i < d; ++i) {
    const W64 bi = b[i];
    const W64 y = (lo64(acc[i] + wmul128(a[0], bi)) * k0) & kDigitMask;
    for (std::size_t j = 0; j < d; ++j) {
      acc[i + j] = acc[i + j] + wmul128(a[j], bi) + wmul128(n[j], y);
    }
    // Column i is now a multiple of beta: carry it into column i + 1.
    acc[i + 1] = acc[i + 1] + (acc[i] >> kDigitBits);
  }
  normalize_cols_g<W64, W128>(acc + d, d, out);
}

/// out = a^2*R^-1 mod n: off-diagonal products touched once and added
/// twice (~d^2/2 multiplies), then the shared truncated REDC.
template <typename W64, typename W128 = bigint::kernels::wide128_t<W64>>
void mont_sqr_g(const W64* a, const W64* n, const W64* mu, std::size_t d,
                W128* cols, W64* t, W64* q, W64* out) {
  using bigint::kernels::wmul128;
  for (std::size_t k = 0; k < 2 * d; ++k) cols[k] = W128{};
  for (std::size_t i = 0; i < d; ++i) {
    const W64 ai = a[i];
    cols[2 * i] = cols[2 * i] + wmul128(ai, ai);
    for (std::size_t j = i + 1; j < d; ++j) {
      const W128 p = wmul128(ai, a[j]);
      cols[i + j] = cols[i + j] + p + p;
    }
  }
  normalize_cols_g<W64, W128>(cols, 2 * d, t);
  redc_trunc_g<W64, W128>(t, n, mu, d, cols, q, out);
}

}  // namespace phissl::mont::r52
