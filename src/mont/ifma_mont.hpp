// Radix-2^52 Montgomery context for one modulus ("ifma52").
//
// The host-side answer to the KNC-faithful vector backend: digits are
// 52-bit values carried in 64-bit words, sized so a 52x52 digit product
// plus accumulation headroom fits the AVX-512 IFMA vpmadd52 pipeline
// (and, portably, an unsigned __int128 column). It is the one-half form
// of the almost-Montgomery core in ifma_amm.hpp — the dual-modulus CRT
// context (IfmaPairCtx) is the two-half form — so every product is the
// digit-serial r52::amm_g (vpmadd52 twin ifma::amm), residues stay in
// [0, 2m) with d = ceil((bits + 2) / 52), and from_mont ends in one
// constant-time conditional subtract.
//
// Satisfies the modexp Ctx concept (see mont/modexp.hpp), so
// fixed_window_exp / sliding_window_exp, rsa::Engine, Dh and the
// service layer pick it up unchanged; the forms without a Workspace use a
// thread-local one and publish its counts before they return.
#pragma once

#include "bigint/bigint.hpp"
#include "mont/ifma_amm.hpp"

namespace phissl::mont {

class IfmaMontCtx : public IfmaAmmCtx {
 public:
  /// Builds the context for an odd modulus m > 1 (throws
  /// std::invalid_argument otherwise). force_portable pins the u128 path
  /// even when the CPU and binary both have IFMA.
  explicit IfmaMontCtx(const bigint::BigInt& m, bool force_portable = false)
      : IfmaAmmCtx({m}, force_portable) {}

  [[nodiscard]] const bigint::BigInt& modulus() const {
    return IfmaAmmCtx::modulus(0);
  }

  /// x -> x*R mod m, below 2m. x must be in [0, m).
  [[nodiscard]] Rep to_mont(const bigint::BigInt& x) const;
  void to_mont(const bigint::BigInt& x, Rep& out, Workspace& ws) const;

  /// x*R mod m -> x in [0, m). The workspace form publishes the
  /// workspace's counts.
  [[nodiscard]] bigint::BigInt from_mont(const Rep& a) const;
  void from_mont(const Rep& a, bigint::BigInt& out, Workspace& ws) const;

  /// Montgomery form of 1 (= R mod m).
  [[nodiscard]] Rep one_mont() const { return one_mont_rep(); }

  using IfmaAmmCtx::mul;
  using IfmaAmmCtx::sqr;
  /// out = a*b*R^-1 mod m, below 2m. out may alias a or b.
  void mul(const Rep& a, const Rep& b, Rep& out) const;
  /// out = a*a*R^-1 mod m, below 2m. out may alias a.
  void sqr(const Rep& a, Rep& out) const;

  /// Packs a non-negative BigInt (< beta^d) into the residue layout.
  void pack(const bigint::BigInt& x, Rep& out) const;
};

}  // namespace phissl::mont
