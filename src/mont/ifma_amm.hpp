// The almost-Montgomery core both ifma52 latency contexts share: H = 1
// half (IfmaMontCtx, one modulus) or H = 2 halves (IfmaPairCtx, the two
// CRT primes of one private op).
//
// Every product is one call of a digit-serial almost-Montgomery kernel
// (r52::amm_g, vpmadd52 twin ifma::amm) over all H halves: per digit of
// b, each half's accumulator takes a*b_i and n*y_i while its quotient
// digit y_i comes from a short scalar chain. Each product carries once
// and never subtracts: residues stay in [0, 2m), which holds when
// 4m < beta^d, so each half gets d = ceil((bits + 2) / 52) digits and the
// halves share the larger d. A result is brought into [0, m) once, by one
// constant-time conditional subtract, when it leaves Montgomery form.
//
// Residues are laid out [half 0][half 1], each half_words() words (d
// digits, then zeros up to a multiple of 8 for whole-register loads).
// Backend dispatch is decided ONCE at construction: the vpmadd52 kernel
// when mont/ifma_kernels.cpp was compiled with AVX-512 IFMA, the CPU has
// it, and d fits its registers (ifma::amm_max_digits); otherwise the
// portable u128 instantiation of amm_g, half by half. `force_portable`
// pins the portable path; rsa::Backend::kIfma52Portable passes it.
//
// Kernel counters (phissl_mont_*_total{ctx="ifma52"}) count one product
// per half. They are counted in the Workspace and published at the end of
// every exponentiation (mont/modexp.hpp) and by from_mont, so the hot
// loop touches no atomic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"

namespace phissl::mont {

class IfmaAmmCtx {
 public:
  /// Residue: H halves of half_words() words, 52-bit digits in 64-bit
  /// words, each half below twice its modulus.
  using Rep = std::vector<std::uint64_t>;

  /// Reusable scratch for mul/sqr/to_mont/from_mont, plus the products
  /// counted since the last publish_counts().
  struct Workspace {
    std::vector<unsigned __int128> acc;  // portable accumulator columns (2d)
    Rep rep;                             // residue-sized scratch
    std::vector<std::uint32_t> u32;      // digit unpack scratch
    std::uint64_t muls = 0;
    std::uint64_t sqrs = 0;
  };

  /// Words in one residue: halves() * half_words().
  [[nodiscard]] std::size_t rep_size() const { return n_.size(); }
  /// Words per half; half h starts at h * half_words().
  [[nodiscard]] std::size_t half_words() const { return hw_; }
  /// Digits per half: ceil((bits + 2) / 52) of the largest modulus.
  [[nodiscard]] std::size_t digits() const { return d_; }
  [[nodiscard]] std::size_t halves() const { return m_.size(); }

  /// True when mul/sqr run the vpmadd52 kernel (vs the portable u128
  /// instantiation of the same arithmetic).
  [[nodiscard]] bool uses_ifma() const { return use_ifma_; }

  /// The moduli (residue layout) and k0 = -m^-1 mod 2^52 per half, for
  /// the shadow-taint replay (ct::TaintAmmCtx52, ct::TaintPairCtx52).
  [[nodiscard]] const Rep& n52() const { return n_; }
  [[nodiscard]] const std::array<std::uint64_t, 2>& k0() const { return k0_; }

  /// Montgomery form of 1 in every half.
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  /// out = a*b*R^-1 per half, below 2m. out may alias a or b. Counts
  /// one product per half in ws.
  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;
  /// out = a*a*R^-1 per half, below 2m. out may alias a.
  void sqr(const Rep& a, Rep& out, Workspace& ws) const;

  /// Adds the workspace's counted products to
  /// phissl_mont_{mul,sqr,redc}_total{ctx="ifma52"} and clears them.
  void publish_counts(Workspace& ws) const;

 protected:
  /// One or two odd moduli > 1 (throws std::invalid_argument otherwise).
  IfmaAmmCtx(std::vector<bigint::BigInt> moduli, bool force_portable);

  [[nodiscard]] const bigint::BigInt& modulus(std::size_t h) const {
    return m_[h];
  }

  /// Packs xs[h] (non-negative, below beta^d) into half h.
  void pack(std::span<const bigint::BigInt* const> xs, Rep& out) const;

  /// (xs[h] * R mod m_h) per half; needs each xs[h] in [0, m_h).
  void to_mont(std::span<const bigint::BigInt* const> xs, Rep& out,
               Workspace& ws) const;

  /// Leaves Montgomery form: *outs[h] in [0, m_h). Publishes the
  /// workspace's counts.
  void from_mont(const Rep& a, std::span<bigint::BigInt* const> outs,
                 Workspace& ws) const;

 private:
  void amm(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;

  std::vector<bigint::BigInt> m_;
  std::size_t d_ = 0;
  std::size_t hw_ = 0;
  bool use_ifma_ = false;
  Rep n_;
  std::array<std::uint64_t, 2> k0_{};  // per half; unused entries zero
  Rep rr_;         // R^2 mod m per half, the to_mont factor
  Rep one_plain_;  // 1 per half, the from_mont factor
  Rep one_m_;      // R mod m per half
};

}  // namespace phissl::mont
