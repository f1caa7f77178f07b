// Shadow-taint radix-52 Montgomery context.
//
// TaintCtx52 is to the ifma52 backend what TaintCtx32 is to MontCtx32: it
// satisfies the modexp Ctx concept with Rep = vector<Tainted<u64>>, so the
// UNMODIFIED production schedules — fixed_window_exp_rep,
// sliding_window_exp_rep, ct_table_select — run over tainted radix-52
// residues. Its mul/sqr instantiate the SAME word-generic truncated-REDC
// kernels (mont/radix52_kernel.hpp) that IfmaMontCtx's portable path
// compiles, just with TW64/TW128 words: what gets verified is the shipped
// algorithm, including the ceiling-trick carry recovery and the masked
// conditional subtract, not a model of it.
//
// Conversions in/out of Montgomery form go through an embedded native
// IfmaMontCtx and then wrap digits with the requested secrecy — those
// paths are setup/teardown, not the kernel under test. The modulus/mu
// digit vectors come from the native context's n52()/mu52() accessors,
// which exist exactly for this replay.
//
// TaintPairCtx52 does the same for the dual-modulus CRT context
// (IfmaPairCtx): the pair schedule (fixed_window_exp_pair_rep with its
// ct_table_select_split gather) runs unmodified over tainted pair
// residues, each product the word-generic r52::amm_g that the portable
// pair path compiles.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
      : native_(m), secret_modulus_(secret_modulus) {
    const std::size_t d = native_.digits();
    n_ = taint_digits(native_.n52(), d, secret_modulus);
    mu_ = taint_digits(native_.mu52(), d, secret_modulus);
    one_m_ = taint_digits(native_.one_mont_rep(), d, secret_modulus);
  }

  /// Residues carry the d significant digits only (the native context's
  /// vector-lane padding is a kernel-layout concern the generic replay
  /// does not have).
  [[nodiscard]] std::size_t rep_size() const { return n_.size(); }
  [[nodiscard]] const bigint::BigInt& modulus() const {
    return native_.modulus();
  }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }
  [[nodiscard]] Rep one_mont() const { return one_m_; }

  /// Converts through the native context, then marks every digit with the
  /// requested secrecy (joined with the modulus secrecy: a residue mod a
  /// secret prime is secret-derived).
  [[nodiscard]] Rep to_mont(const bigint::BigInt& x, bool secret_value) const {
    return taint_digits(native_.to_mont(x), n_.size(),
                        secret_value || secret_modulus_);
  }

  /// Strips taint and converts back — verification path for tests, which
  /// compare the tainted kernel's output against IfmaMontCtx's.
  [[nodiscard]] bigint::BigInt from_mont_clear(const Rep& a) const {
    mont::IfmaMontCtx::Rep plain(native_.padded_digits(), 0);
    for (std::size_t i = 0; i < a.size(); ++i) plain[i] = a[i].v;
    return native_.from_mont(plain);
  }

  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const {
    const std::size_t d = n_.size();
    prepare(ws, d);
    out.resize(d);
    mont::r52::mont_mul_g<TW64, TW128>(a.data(), b.data(), n_.data(),
                                       mu_.data(), d, ws.cols.data(),
                                       ws.t.data(), ws.q.data(), out.data());
  }

  void sqr(const Rep& a, Rep& out, Workspace& ws) const {
    const std::size_t d = n_.size();
    prepare(ws, d);
    out.resize(d);
    mont::r52::mont_sqr_g<TW64, TW128>(a.data(), n_.data(), mu_.data(), d,
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

  /// Wraps the first d digits of a native residue with a secrecy mark.
  static Rep taint_digits(const mont::IfmaMontCtx::Rep& r, std::size_t d,
                          bool secret_value) {
    Rep out;
    out.reserve(d);
    for (std::size_t i = 0; i < d; ++i) {
      out.emplace_back(r[i], secret_value);
    }
    return out;
  }

 private:
  // The kernels overwrite every scratch word before reading it; only the
  // sizes matter here (capacity is retained across calls).
  static void prepare(Workspace& ws, std::size_t d) {
    ws.cols.resize(2 * d);
    ws.t.resize(2 * d);
    ws.q.resize(d);
  }

  mont::IfmaMontCtx native_;
  bool secret_modulus_;
  Rep n_;   // modulus digits, tainted iff secret_modulus
  Rep mu_;  // -n^-1 mod beta^d digits, likewise
  Rep one_m_;
};

class TaintPairCtx52 {
 public:
  /// [p half: d digits][q half: d digits] — the native layout without
  /// its vector-lane padding.
  using Rep = std::vector<TW64>;

  struct Workspace {
    std::vector<TW128> acc;  // d accumulator columns
  };

  /// secret_modulus taints both primes' digits and k0 (CRT: the moduli
  /// are key material).
  TaintPairCtx52(const bigint::BigInt& p, const bigint::BigInt& q,
                 bool secret_modulus = false)
      : native_(p, q, /*force_portable=*/true),
        secret_modulus_(secret_modulus) {
    n_ = taint_pair(native_.n52(), secret_modulus);
    one_m_ = taint_pair(native_.one_mont_rep(), secret_modulus);
    for (std::size_t h = 0; h < 2; ++h) {
      k0_[h] = TW64(native_.k0()[h], secret_modulus);
    }
  }

  [[nodiscard]] std::size_t half_words() const { return native_.digits(); }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  /// Converts through the native context, then marks every digit.
  [[nodiscard]] Rep to_mont(const bigint::BigInt& xp, const bigint::BigInt& xq,
                            bool secret_value) const {
    mont::IfmaPairCtx::Workspace ws;
    mont::IfmaPairCtx::Rep r;
    native_.to_mont(xp, xq, r, ws);
    return taint_pair(r, secret_value || secret_modulus_);
  }

  /// Strips taint and leaves Montgomery form through the native context.
  void from_mont_clear(const Rep& a, bigint::BigInt& out_p,
                       bigint::BigInt& out_q) const {
    const std::size_t d = native_.digits();
    const std::size_t hw = native_.half_words();
    mont::IfmaPairCtx::Rep plain(2 * hw, 0);
    for (std::size_t j = 0; j < d; ++j) {
      plain[j] = a[j].v;
      plain[hw + j] = a[d + j].v;
    }
    mont::IfmaPairCtx::Workspace ws;
    native_.from_mont(plain, out_p, out_q, ws);
  }

  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const {
    const std::size_t d = native_.digits();
    ws.acc.resize(d);
    out.resize(2 * d);
    for (std::size_t h = 0; h < 2; ++h) {
      mont::r52::amm_g<TW64, TW128>(a.data() + h * d, b.data() + h * d,
                                    n_.data() + h * d, k0_[h], d,
                                    ws.acc.data(), out.data() + h * d);
    }
  }

  void sqr(const Rep& a, Rep& out, Workspace& ws) const { mul(a, a, out, ws); }

 private:
  /// The d digits of each half of a native pair residue, marked.
  Rep taint_pair(const mont::IfmaPairCtx::Rep& r, bool secret) const {
    const std::size_t d = native_.digits();
    const std::size_t hw = native_.half_words();
    Rep out;
    out.reserve(2 * d);
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t j = 0; j < d; ++j) {
        out.emplace_back(r[h * hw + j], secret);
      }
    }
    return out;
  }

  mont::IfmaPairCtx native_;
  bool secret_modulus_;
  Rep n_;
  std::array<TW64, 2> k0_;
  Rep one_m_;
};

}  // namespace phissl::ct
