// Radix-2^52 Montgomery context with truncated REDC ("ifma52").
//
// The host-side answer to the KNC-faithful vector backend: digits are
// 52-bit values carried in 64-bit words, sized so a 52x52 digit product
// plus accumulation headroom fits the AVX-512 IFMA vpmadd52 pipeline
// (and, portably, an unsigned __int128 column). The REDC step is the
// TRUNCATED schedule of radix52_kernel.hpp — no serial quotient chain —
// which is what lets the IFMA instantiation run 8 digit columns per
// instruction instead of word-serial CIOS.
//
// Backend dispatch is decided ONCE at construction:
//   - real vpmadd52 kernels (mont/ifma_kernels.cpp) when that TU was
//     compiled with AVX-512 IFMA support AND util::cpu_features() reports
//     the CPU has it,
//   - otherwise the portable u128-column instantiation of the exact same
//     algorithm (still beats the u32-lane KNC emulation on 64-bit hosts).
// `force_portable` pins the portable path; rsa::Backend::kIfma52Portable
// passes it, so A/B runs and tests reach the u128 kernels on IFMA
// hardware too.
//
// Satisfies the modexp Ctx concept (see mont/modexp.hpp), so
// fixed_window_exp / sliding_window_exp, rsa::Engine CRT and the service
// layer pick it up unchanged.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"

namespace phissl::mont {

class IfmaMontCtx {
 public:
  /// Montgomery residue: little-endian 52-bit digits in 64-bit words,
  /// zero-padded to padded_digits() (a multiple of 8, for whole-register
  /// vector loads). Value < modulus.
  using Rep = std::vector<std::uint64_t>;

  /// Reusable scratch for mul/sqr/to_mont/from_mont, plus the products
  /// counted since the last publish_counts().
  struct Workspace {
    std::vector<std::uint64_t> cols64;        // IFMA column sums
    std::vector<std::uint64_t> opad;          // zero-padded load operand
    std::vector<unsigned __int128> cols;      // portable columns (2d)
    std::vector<std::uint64_t> t;             // normalized product (2d)
    std::vector<std::uint64_t> q;             // quotient digits (d)
    Rep rep;                                  // residue-sized scratch
    std::vector<std::uint32_t> u32;           // digit unpack scratch
    std::uint64_t muls = 0;
    std::uint64_t sqrs = 0;
  };

  /// Builds the context for an odd modulus m > 1 (throws
  /// std::invalid_argument otherwise). force_portable pins the u128 path
  /// even when the CPU and binary both have IFMA.
  explicit IfmaMontCtx(const bigint::BigInt& m, bool force_portable = false);

  [[nodiscard]] std::size_t rep_size() const { return pd_; }
  [[nodiscard]] const bigint::BigInt& modulus() const { return m_; }

  /// Digit geometry: d 52-bit digits, padded to pd (multiple of 8).
  [[nodiscard]] std::size_t digits() const { return d_; }
  [[nodiscard]] std::size_t padded_digits() const { return pd_; }

  /// True when mul/sqr run the vpmadd52 kernels (vs the portable u128
  /// instantiation of the same truncated-REDC algorithm).
  [[nodiscard]] bool uses_ifma() const { return use_ifma_; }
  [[nodiscard]] std::string_view kernel_name() const {
    return use_ifma_ ? "ifma52" : "ifma52-portable";
  }

  /// Modulus and mu = -n^-1 mod beta^d as padded digit vectors — the
  /// shadow-taint checker (ct::TaintCtx52) replays the generic kernels
  /// against these.
  [[nodiscard]] const Rep& n52() const { return n52_; }
  [[nodiscard]] const Rep& mu52() const { return mu52_; }

  /// x -> x*R mod m. x must be in [0, m).
  [[nodiscard]] Rep to_mont(const bigint::BigInt& x) const;
  void to_mont(const bigint::BigInt& x, Rep& out, Workspace& ws) const;

  /// x*R mod m -> x. The workspace form publishes the workspace's counts.
  [[nodiscard]] bigint::BigInt from_mont(const Rep& a) const;
  void from_mont(const Rep& a, bigint::BigInt& out, Workspace& ws) const;

  /// Montgomery form of 1 (= R mod m).
  [[nodiscard]] Rep one_mont() const { return one_m_; }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  /// out = a*b*R^-1 mod m (truncated REDC). out may alias a or b.
  /// The workspace form counts the product in ws; the other publishes it.
  void mul(const Rep& a, const Rep& b, Rep& out) const;
  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;

  /// out = a*a*R^-1 mod m (off-diagonal-once squaring + the same REDC).
  void sqr(const Rep& a, Rep& out) const;
  void sqr(const Rep& a, Rep& out, Workspace& ws) const;

  /// Adds the workspace's counted products to
  /// phissl_mont_{mul,sqr,redc}_total{ctx="ifma52"} and clears them. The
  /// modexp schedules call it as they return, so the counters are exact
  /// whenever an exponentiation has returned, at no atomic per product.
  void publish_counts(Workspace& ws) const;

  /// Packs a non-negative BigInt (< beta^d) into padded 52-bit digits.
  void pack(const bigint::BigInt& x, Rep& out) const;

 private:
  void prepare(Workspace& ws) const;

  bigint::BigInt m_;
  std::size_t d_ = 0;
  std::size_t pd_ = 0;
  bool use_ifma_ = false;
  Rep n52_;
  Rep mu52_;
  std::vector<std::uint64_t> n_pad_;   // n with the kernels' zero padding
  std::vector<std::uint64_t> mu_pad_;  // mu likewise
  Rep rr_rep_;     // R^2 mod m, Montgomery factor for to_mont
  Rep one_plain_;  // plain 1, for from_mont via mul
  Rep one_m_;      // R mod m
};

}  // namespace phissl::mont
