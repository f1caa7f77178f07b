// Dual-modulus radix-2^52 context: both CRT halves of one RSA private op
// in one set of residues ("ifma52" CRT).
//
// The two-half form of the almost-Montgomery core in ifma_amm.hpp (the
// one-modulus IfmaMontCtx is the one-half form): every product runs the
// two halves' digit-serial products together in one kernel call
// (ifma::amm with two halves, portably r52::amm_g per half), and their
// quotient chains, interleaved digit by digit, hide each other's latency.
// The halves share the larger modulus' d, so every CRT key takes this
// path.
//
// Residues are pair-laid-out: [p half][q half], each half_words() words.
// The pair schedule in mont/modexp.hpp (fixed_window_exp_pair) drives
// mul/sqr and gathers both halves' window entries in one table scan;
// rsa::Engine takes it for the ifma52 and ifma52-portable backends under
// the fixed-window schedule. Kernel counters count two products per pair
// product.
#pragma once

#include "bigint/bigint.hpp"
#include "mont/ifma_amm.hpp"

namespace phissl::mont {

class IfmaPairCtx : public IfmaAmmCtx {
 public:
  /// Builds the pair context for two odd moduli > 1 (throws
  /// std::invalid_argument otherwise). force_portable pins the u128 path
  /// even when the CPU and binary both have IFMA.
  IfmaPairCtx(const bigint::BigInt& p, const bigint::BigInt& q,
              bool force_portable = false)
      : IfmaAmmCtx({p, q}, force_portable) {}

  [[nodiscard]] const bigint::BigInt& modulus_p() const { return modulus(0); }
  [[nodiscard]] const bigint::BigInt& modulus_q() const { return modulus(1); }

  /// (xp, xq) -> (xp*R mod p, xq*R mod q), each half below 2m. Needs
  /// xp in [0, p) and xq in [0, q).
  void to_mont(const bigint::BigInt& xp, const bigint::BigInt& xq, Rep& out,
               Workspace& ws) const;

  /// Leaves Montgomery form: out_p, out_q in [0, p) and [0, q). Publishes
  /// the workspace's counts.
  void from_mont(const Rep& a, bigint::BigInt& out_p, bigint::BigInt& out_q,
                 Workspace& ws) const;

  /// Packs non-negative values below beta^d into the two halves.
  void pack(const bigint::BigInt& xp, const bigint::BigInt& xq,
            Rep& out) const;
};

}  // namespace phissl::mont
