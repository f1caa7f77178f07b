// Carry-ripple inputs for the radix-2^52 almost-Montgomery kernel, shared
// by the dispatched==portable IfmaMont tests and the ifma52 rows of
// VectorsTest (one half, IfmaMontCtx, and two, IfmaPairCtx).
//
// Random operands almost never make a carry ripple: after the vector
// carry round a lane overflows only when its low 52 bits are within 2^12
// of 2^52, and it passes a carry on only when it is exactly 2^52 - 1. So
// these cases are built digit by digit, directly in the Montgomery domain
// (IfmaMontCtx::pack), at 512-4096 bits:
//   - runs of 2^52-1 digits, and all-ones moduli whose every digit is one;
//   - a = 1 + beta against b = 1 + (2^52-1) beta + (2^52-1) beta^3 + ...,
//     whose product column k is b_k + b_(k-1): one lane overflows and
//     every lane above it is exactly 2^52-1, so the carry must ripple
//     through the whole run;
//   - all-(2^52-1) operands, whose product columns carry the most
//     headroom bits;
//   - m-1 times R mod m, whose value m-1 borrows through every digit of
//     a comparison with m.
// pair_cases() extends them to residues that may reach 2m, as the
// kernel's do: operands in [m, 2m), and moduli of exactly 52d - 2 bits,
// the tightest case of 4m < beta^d.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "util/random.hpp"

namespace phissl::mont::ripple {

inline constexpr unsigned kDigitBits = 52;

/// Digits d_k (low first) as an integer: sum of d_k * 2^(52k).
inline bigint::BigInt from_digits(const std::vector<bigint::BigInt>& digits) {
  bigint::BigInt x;
  for (std::size_t k = digits.size(); k-- > 0;) {
    x <<= kDigitBits;
    x = x + digits[k];
  }
  return x;
}

inline bigint::BigInt max_digit() {
  return (bigint::BigInt{1} << kDigitBits) - bigint::BigInt{1};
}

/// One modulus and the operand pairs (Montgomery-domain values < m) to
/// multiply mod it; sqr cases square each `a`.
struct Case {
  std::string what;
  bigint::BigInt m;
  std::vector<std::pair<bigint::BigInt, bigint::BigInt>> pairs;
};

/// The modulus sizes the cases cover.
inline constexpr std::size_t kBits[] = {512, 1024, 2048, 3072, 4096};

inline std::vector<Case> cases() {
  using bigint::BigInt;
  util::Rng rng(0x52c4a77e);
  std::vector<Case> out;
  for (const std::size_t bits : kBits) {
    const BigInt top = BigInt{1} << bits;
    const std::vector<std::pair<std::string, BigInt>> moduli = {
        {"all-ones", top - BigInt{1}},
        {"random", BigInt::random_odd_exact_bits(bits, rng)},
        {"sparse", (top >> 1) + BigInt{1}},
    };
    for (const auto& [name, m] : moduli) {
      const IfmaMontCtx ctx(m);
      const std::size_t d = ctx.digits();
      // Every operand below fits d-1 digits, so it is below m (m has more
      // than 52(d-1) bits).
      std::vector<BigInt> run(d - 1, max_digit());  // 2^52-1 in each digit
      std::vector<BigInt> ripple_b(d - 1);          // 1, M, 0, M, 0, M...
      for (std::size_t k = 0; k + 1 < d; ++k) {
        ripple_b[k] = k == 0 ? BigInt{1} : (k % 2 == 1 ? max_digit() : BigInt{});
      }
      const BigInt all_m = from_digits(run);
      const BigInt one_beta = from_digits({BigInt{1}, BigInt{1}});
      const BigInt r_mod_m = (BigInt{1} << (kDigitBits * d)).mod(m);
      Case c{name + "/" + std::to_string(bits), m, {}};
      c.pairs.emplace_back(one_beta, from_digits(ripple_b));
      c.pairs.emplace_back(from_digits(ripple_b), one_beta);
      c.pairs.emplace_back(all_m, all_m);
      c.pairs.emplace_back(all_m, m - BigInt{1});
      c.pairs.emplace_back(m - BigInt{1}, r_mod_m);
      c.pairs.emplace_back(m - BigInt{1}, m - BigInt{1});
      c.pairs.emplace_back(m - BigInt{2}, all_m);
      c.pairs.emplace_back(BigInt::random_below(m, rng), all_m);
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// A Montgomery residue's value.
inline bigint::BigInt value(const IfmaMontCtx::Rep& rep) {
  std::vector<bigint::BigInt> digits;
  for (const std::uint64_t w : rep) digits.push_back(bigint::BigInt::from_u64(w));
  return from_digits(digits);
}

/// The cases again for operands anywhere below 2m: each pair also as
/// (a + m, b) and (a, b + m), plus moduli of exactly 52d - 2 bits for
/// d = 10, 20, 30, 40 (all-ones, random, sparse) with operands at and
/// just below 2m.
inline std::vector<Case> pair_cases() {
  using bigint::BigInt;
  std::vector<Case> out = cases();
  for (Case& c : out) {
    const std::size_t n = c.pairs.size();
    for (std::size_t k = 0; k < n; ++k) {
      const auto [a, b] = c.pairs[k];
      c.pairs.emplace_back(a + c.m, b);
      c.pairs.emplace_back(a, b + c.m);
    }
  }
  util::Rng rng(0x52d2);
  for (const std::size_t d : {std::size_t{10}, std::size_t{20}, std::size_t{30},
                              std::size_t{40}}) {
    const std::size_t bits = kDigitBits * d - 2;
    const BigInt top = BigInt{1} << bits;
    const std::vector<std::pair<std::string, BigInt>> moduli = {
        {"tight-all-ones", top - BigInt{1}},
        {"tight-random", BigInt::random_odd_exact_bits(bits, rng)},
        {"tight-sparse", (top >> 1) + BigInt{1}},
    };
    for (const auto& [name, m] : moduli) {
      const BigInt two_m = m + m;
      Case c{name + "/" + std::to_string(bits), m, {}};
      c.pairs.emplace_back(two_m - BigInt{1}, two_m - BigInt{1});
      c.pairs.emplace_back(two_m - BigInt{1}, m);
      c.pairs.emplace_back(m, m);
      c.pairs.emplace_back(two_m - BigInt{2}, BigInt{1});
      c.pairs.emplace_back(BigInt::random_below(two_m, rng),
                           BigInt::random_below(two_m, rng));
      c.pairs.emplace_back(m - BigInt{1}, two_m - BigInt{1});
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// Products in pair_cases(): three per pair of cases(), six per tight
/// modulus.
inline constexpr std::size_t kPairCaseProducts =
    std::size(kBits) * 3 * 8 * 3 + 4 * 3 * 6;

/// The almost-Montgomery product (a*b + Y*m) / R, R = beta^d, for the one
/// Y < R that makes it exact — the kernel's exact output.
inline bigint::BigInt amm(const bigint::BigInt& a, const bigint::BigInt& b,
                          const bigint::BigInt& m, std::size_t d) {
  const bigint::BigInt r = bigint::BigInt{1} << (kDigitBits * d);
  const bigint::BigInt ab = a * b;
  const bigint::BigInt y = (r - (ab * m.mod_inverse(r)).mod(r)).mod(r);
  return (ab + y * m) >> (kDigitBits * d);
}

/// One half of a pair residue, as a value.
inline bigint::BigInt half_value(const IfmaPairCtx& ctx,
                                 const IfmaPairCtx::Rep& rep, std::size_t h) {
  std::vector<bigint::BigInt> digits;
  for (std::size_t j = 0; j < ctx.half_words(); ++j) {
    digits.push_back(bigint::BigInt::from_u64(rep[h * ctx.half_words() + j]));
  }
  return from_digits(digits);
}

}  // namespace phissl::mont::ripple
