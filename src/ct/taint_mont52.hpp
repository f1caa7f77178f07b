// Shadow-taint radix-52 Montgomery contexts.
//
// Each is to a radix-52 production context what TaintCtx32 is to
// MontCtx32: it satisfies the modexp Ctx concept with Rep =
// vector<Tainted<u64>>, so the UNMODIFIED production schedules —
// fixed_window_exp_rep, fixed_window_exp_pair_rep, sliding_window_exp_rep,
// ct_table_select(_split) — run over tainted radix-52 residues, and every
// product instantiates the SAME word-generic kernel
// (mont/radix52_kernel.hpp) that the production context's portable path
// compiles, just with TW64/TW128 words: what gets verified is the shipped
// algorithm, not a model of it.
//
//  - TaintAmmCtx52 (one half) and TaintPairCtx52 (two halves) replay
//    r52::amm_g, the almost-Montgomery product of the ifma52 latency
//    contexts IfmaMontCtx and IfmaPairCtx. Conversions in and out of
//    Montgomery form go through an embedded native context pinned to its
//    portable path and then wrap digits with the requested secrecy — those
//    paths are setup/teardown, not the kernel under test.
//  - TaintCtx52 replays r52::mont_mul_g/mont_sqr_g, the truncated REDC of
//    BatchIfmaMontCtx's portable lane kernels — the only truncated REDC
//    left — including the ceiling-trick carry recovery and the masked
//    conditional subtract. It derives n, mu and the Montgomery conversions
//    from the modulus itself, in the batch's geometry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "ct/taint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "mont/radix52_kernel.hpp"

namespace phissl::ct {

class TaintCtx52 {
 public:
  using Rep = std::vector<TW64>;

  struct Workspace {
    std::vector<TW128> cols;  // 2d accumulation columns
    std::vector<TW64> t;      // normalized double-length digits (2d)
    std::vector<TW64> q;      // quotient digits (d)
  };

  /// secret_modulus taints the modulus digits AND mu = -n^-1 mod beta^d —
  /// the CRT case, where the primes are private key material and even the
  /// reduction constants are secret-derived.
  explicit TaintCtx52(const bigint::BigInt& m, bool secret_modulus = false)
      : m_(m),
        secret_modulus_(secret_modulus),
        // BatchIfmaMontCtx's d: the truncated REDC reads columns d-3 .. d-1.
        d_(std::max<std::size_t>(
            3, (m.bit_length() + mont::r52::kDigitBits - 1) /
                   mont::r52::kDigitBits)),
        r_(bigint::BigInt{1} << (mont::r52::kDigitBits * d_)),
        r_inv_(r_.mod_inverse(m)) {
    n_ = digits(m, secret_modulus);
    mu_ = digits(r_ - m.mod_inverse(r_), secret_modulus);
    one_m_ = digits(r_.mod(m), secret_modulus);
  }

  [[nodiscard]] std::size_t rep_size() const { return d_; }
  [[nodiscard]] const bigint::BigInt& modulus() const { return m_; }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }
  [[nodiscard]] Rep one_mont() const { return one_m_; }

  /// x*R mod m, every digit marked with the requested secrecy (joined with
  /// the modulus secrecy: a residue mod a secret prime is secret-derived).
  [[nodiscard]] Rep to_mont(const bigint::BigInt& x, bool secret_value) const {
    return digits((x * r_).mod(m_), secret_value || secret_modulus_);
  }

  /// Strips taint and leaves Montgomery form — the verification path for
  /// tests, which compare against a plain modular exponentiation.
  [[nodiscard]] bigint::BigInt from_mont_clear(const Rep& a) const {
    std::vector<std::uint64_t> plain(d_);
    for (std::size_t j = 0; j < d_; ++j) plain[j] = a[j].v;
    std::vector<std::uint32_t> u32;
    bigint::BigInt v;
    mont::r52::unpack52(plain.data(), d_, 1, u32, v);
    return (v * r_inv_).mod(m_);
  }

  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const {
    prepare(ws);
    out.resize(d_);
    mont::r52::mont_mul_g<TW64, TW128>(a.data(), b.data(), n_.data(),
                                       mu_.data(), d_, ws.cols.data(),
                                       ws.t.data(), ws.q.data(), out.data());
  }

  void sqr(const Rep& a, Rep& out, Workspace& ws) const {
    prepare(ws);
    out.resize(d_);
    mont::r52::mont_sqr_g<TW64, TW128>(a.data(), n_.data(), mu_.data(), d_,
                                       ws.cols.data(), ws.t.data(),
                                       ws.q.data(), out.data());
  }

  void mul(const Rep& a, const Rep& b, Rep& out) const {
    Workspace ws;
    mul(a, b, out, ws);
  }
  void sqr(const Rep& a, Rep& out) const {
    Workspace ws;
    sqr(a, out, ws);
  }

 private:
  // The kernels overwrite every scratch word before reading it; only the
  // sizes matter here (capacity is retained across calls).
  void prepare(Workspace& ws) const {
    ws.cols.resize(2 * d_);
    ws.t.resize(2 * d_);
    ws.q.resize(d_);
  }

  /// The d digits of x, each marked with `secret`.
  [[nodiscard]] Rep digits(const bigint::BigInt& x, bool secret) const {
    std::vector<std::uint64_t> plain(d_);
    mont::r52::pack52(x, d_, plain.data());
    Rep out;
    out.reserve(d_);
    for (const std::uint64_t w : plain) out.emplace_back(w, secret);
    return out;
  }

  bigint::BigInt m_;
  bool secret_modulus_;
  std::size_t d_;
  bigint::BigInt r_;      // R = beta^d
  bigint::BigInt r_inv_;  // R^-1 mod m
  Rep n_;   // modulus digits, tainted iff secret_modulus
  Rep mu_;  // -n^-1 mod R digits, likewise
  Rep one_m_;
};

/// The almost-Montgomery replay over a native context's halves (one for
/// IfmaMontCtx, two for IfmaPairCtx): residues are [half 0: d digits]
/// [half 1: d digits], the native layout without its vector-lane padding.
template <typename Native>
class TaintAmm52 {
 public:
  using Rep = std::vector<TW64>;

  struct Workspace {
    std::vector<TW128> acc;  // 2d accumulator columns
  };

  /// Words per half: where the pair schedule splits its gather.
  [[nodiscard]] std::size_t half_words() const { return native_.digits(); }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const {
    const std::size_t d = native_.digits();
    ws.acc.resize(2 * d);
    out.resize(native_.halves() * d);
    for (std::size_t h = 0; h < native_.halves(); ++h) {
      mont::r52::amm_g<TW64, TW128>(a.data() + h * d, b.data() + h * d,
                                    n_.data() + h * d, k0_[h], d,
                                    ws.acc.data(), out.data() + h * d);
    }
  }

  void sqr(const Rep& a, Rep& out, Workspace& ws) const { mul(a, a, out, ws); }

 protected:
  /// secret_modulus taints every modulus digit and k0 (CRT: the moduli
  /// are key material).
  TaintAmm52(Native native, bool secret_modulus)
      : native_(std::move(native)), secret_modulus_(secret_modulus) {
    n_ = taint(native_.n52(), secret_modulus);
    one_m_ = taint(native_.one_mont_rep(), secret_modulus);
    for (std::size_t h = 0; h < native_.halves(); ++h) {
      k0_.emplace_back(native_.k0()[h], secret_modulus);
    }
  }

  /// The d digits of each half of a native residue, marked.
  [[nodiscard]] Rep taint(const mont::IfmaAmmCtx::Rep& r, bool secret) const {
    const std::size_t d = native_.digits();
    Rep out;
    out.reserve(native_.halves() * d);
    for (std::size_t h = 0; h < native_.halves(); ++h) {
      for (std::size_t j = 0; j < d; ++j) {
        out.emplace_back(r[h * native_.half_words() + j], secret);
      }
    }
    return out;
  }

  /// A residue back in the native layout, taint stripped.
  [[nodiscard]] mont::IfmaAmmCtx::Rep clear(const Rep& a) const {
    const std::size_t d = native_.digits();
    mont::IfmaAmmCtx::Rep plain(native_.rep_size(), 0);
    for (std::size_t h = 0; h < native_.halves(); ++h) {
      for (std::size_t j = 0; j < d; ++j) {
        plain[h * native_.half_words() + j] = a[h * d + j].v;
      }
    }
    return plain;
  }

  Native native_;
  bool secret_modulus_;
  Rep n_;
  std::vector<TW64> k0_;
  Rep one_m_;
};

/// IfmaMontCtx's one-half product: the one-modulus exponentiations of
/// Dh, the public op and non-CRT private ops.
class TaintAmmCtx52 : public TaintAmm52<mont::IfmaMontCtx> {
 public:
  explicit TaintAmmCtx52(const bigint::BigInt& m, bool secret_modulus = false)
      : TaintAmm52(mont::IfmaMontCtx(m, /*force_portable=*/true),
                   secret_modulus) {}

  [[nodiscard]] const bigint::BigInt& modulus() const {
    return native_.modulus();
  }

  /// Converts through the native context, then marks every digit (joined
  /// with the modulus secrecy).
  [[nodiscard]] Rep to_mont(const bigint::BigInt& x, bool secret_value) const {
    return taint(native_.to_mont(x), secret_value || secret_modulus_);
  }

  /// Strips taint and leaves Montgomery form through the native context.
  [[nodiscard]] bigint::BigInt from_mont_clear(const Rep& a) const {
    return native_.from_mont(clear(a));
  }
};

/// IfmaPairCtx's two-half product: both CRT halves of one private op.
class TaintPairCtx52 : public TaintAmm52<mont::IfmaPairCtx> {
 public:
  TaintPairCtx52(const bigint::BigInt& p, const bigint::BigInt& q,
                 bool secret_modulus = false)
      : TaintAmm52(mont::IfmaPairCtx(p, q, /*force_portable=*/true),
                   secret_modulus) {}

  /// Converts through the native context, then marks every digit.
  [[nodiscard]] Rep to_mont(const bigint::BigInt& xp, const bigint::BigInt& xq,
                            bool secret_value) const {
    mont::IfmaPairCtx::Workspace ws;
    mont::IfmaPairCtx::Rep r;
    native_.to_mont(xp, xq, r, ws);
    return taint(r, secret_value || secret_modulus_);
  }

  /// Strips taint and leaves Montgomery form through the native context.
  void from_mont_clear(const Rep& a, bigint::BigInt& out_p,
                       bigint::BigInt& out_q) const {
    mont::IfmaPairCtx::Workspace ws;
    native_.from_mont(clear(a), out_p, out_q, ws);
  }
};

}  // namespace phissl::ct
