// Dual-modulus radix-2^52 context: both CRT halves of one RSA private op
// in one set of residues ("ifma52" CRT).
//
// A single-modulus context (IfmaMontCtx) runs one exponentiation at a
// time, and its column-blocked product already keeps the out-of-order
// core busy; interleaving two of them gains nothing. This context instead
// runs the two halves' products TOGETHER in one digit-serial
// almost-Montgomery kernel (r52::amm_g, vpmadd52 twin ifma::pair_amm):
// per digit of b, each half's accumulator takes a*b_i and n*y_i in zmm
// registers while its quotient digit y_i comes from a short scalar chain,
// and the two halves' chains hide each other's latency. Each product
// carries once and never subtracts: residues stay in [0, 2m), which holds
// when 4m < beta^d, so each half gets d = ceil((bits + 2) / 52) digits and
// the two halves share the larger d. The result is brought into [0, m)
// once, when it leaves Montgomery form.
//
// Residues are pair-laid-out: [p half][q half], each half_words() words
// (d digits, then zeros). The pair schedule in mont/modexp.hpp
// (fixed_window_exp_pair) drives mul/sqr and gathers both halves' window
// entries in one table scan; rsa::Engine takes it for the ifma52 and
// ifma52-portable backends under the fixed-window schedule.
//
// Kernel counters (phissl_mont_*_total{ctx="ifma52"}) count two products
// per pair product; like IfmaMontCtx's they are counted in the Workspace
// and published at the end of every exponentiation and by from_mont.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"

namespace phissl::mont {

class IfmaPairCtx {
 public:
  /// Pair residue: [p half: half_words()][q half: half_words()], 52-bit
  /// digits in 64-bit words, each half below twice its modulus.
  using Rep = std::vector<std::uint64_t>;

  /// Reusable scratch for mul/sqr/to_mont/from_mont, plus the products
  /// counted since the last publish_counts().
  struct Workspace {
    std::vector<unsigned __int128> acc;  // portable accumulator columns (d)
    Rep rep;                             // pair-sized scratch
    std::vector<std::uint32_t> u32;      // digit unpack scratch
    std::uint64_t muls = 0;
    std::uint64_t sqrs = 0;
  };

  /// Builds the pair context for two odd moduli > 1 (throws
  /// std::invalid_argument otherwise). force_portable pins the u128 path
  /// even when the CPU and binary both have IFMA.
  IfmaPairCtx(const bigint::BigInt& p, const bigint::BigInt& q,
              bool force_portable = false);

  /// Words per half; the q half starts here.
  [[nodiscard]] std::size_t half_words() const { return hw_; }
  /// Digits per half: ceil((bits + 2) / 52) of the larger modulus.
  [[nodiscard]] std::size_t digits() const { return d_; }
  [[nodiscard]] const bigint::BigInt& modulus_p() const { return m_[0]; }
  [[nodiscard]] const bigint::BigInt& modulus_q() const { return m_[1]; }

  /// True when mul/sqr run the vpmadd52 pair kernel (vs the portable
  /// u128 instantiation of the same arithmetic).
  [[nodiscard]] bool uses_ifma() const { return use_ifma_; }

  /// Both moduli (pair layout) and k0 = -m^-1 mod 2^52 per half, for the
  /// shadow-taint replay (ct::TaintPairCtx52).
  [[nodiscard]] const Rep& n52() const { return n_; }
  [[nodiscard]] const std::array<std::uint64_t, 2>& k0() const { return k0_; }

  /// (xp, xq) -> (xp*R mod p, xq*R mod q), each half below 2m. Needs
  /// xp in [0, p) and xq in [0, q).
  void to_mont(const bigint::BigInt& xp, const bigint::BigInt& xq, Rep& out,
               Workspace& ws) const;

  /// Leaves Montgomery form: out_p, out_q in [0, p) and [0, q). Publishes
  /// the workspace's counts.
  void from_mont(const Rep& a, bigint::BigInt& out_p, bigint::BigInt& out_q,
                 Workspace& ws) const;

  /// Montgomery form of (1, 1).
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  /// out = (a*b*R^-1, per half) below 2m. out may alias a or b.
  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;
  /// out = (a*a*R^-1, per half) below 2m. out may alias a.
  void sqr(const Rep& a, Rep& out, Workspace& ws) const;

  /// Adds the workspace's counted products to the kernel counters and
  /// clears them.
  void publish_counts(Workspace& ws) const;

  /// Packs non-negative values below beta^d into the two halves.
  void pack(const bigint::BigInt& xp, const bigint::BigInt& xq,
            Rep& out) const;

 private:
  void amm(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;

  std::array<bigint::BigInt, 2> m_;
  std::size_t d_ = 0;
  std::size_t hw_ = 0;
  bool use_ifma_ = false;
  Rep n_;
  std::array<std::uint64_t, 2> k0_{};
  Rep rr_;         // (R^2 mod p, R^2 mod q), the to_mont factor
  Rep one_plain_;  // (1, 1), the from_mont factor
  Rep one_m_;      // (R mod p, R mod q)
};

}  // namespace phissl::mont
