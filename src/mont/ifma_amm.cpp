// Almost-Montgomery core: see ifma_amm.hpp. Nothing here branches on or
// indexes by a residue or exponent digit.
//
// phissl:ct-kernel — tools/phissl_lint.py bans raw index extraction here.
#include "mont/ifma_amm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "mont/ifma_kernels.hpp"
#include "mont/radix52_kernel.hpp"
#include "obs/metrics.hpp"
#include "util/cpu.hpp"

namespace phissl::mont {

namespace {
constexpr unsigned kDb = r52::kDigitBits;
}  // namespace

IfmaAmmCtx::IfmaAmmCtx(std::vector<bigint::BigInt> moduli,
                       bool force_portable)
    : m_(std::move(moduli)) {
  assert(m_.size() == 1 || m_.size() == 2);
  for (const bigint::BigInt& m : m_) {
    if (m.is_negative() || m <= bigint::BigInt{1} || m.is_even()) {
      throw std::invalid_argument("ifma52: modulus must be odd and > 1");
    }
    // 4m < beta^d keeps every almost-Montgomery residue below 2m.
    d_ = std::max(d_, (m.bit_length() + 2 + kDb - 1) / kDb);
  }
  hw_ = (d_ + 7) & ~std::size_t{7};
  use_ifma_ = !force_portable && ifma::compiled() &&
              util::cpu_features().avx512ifma &&
              d_ <= ifma::amm_max_digits(halves());

  const bigint::BigInt beta = bigint::BigInt{1} << kDb;
  bigint::BigInt r{1};
  r <<= kDb * d_;
  n_.assign(halves() * hw_, 0);
  rr_ = one_plain_ = one_m_ = n_;
  for (std::size_t h = 0; h < halves(); ++h) {
    const bigint::BigInt& m = m_[h];
    const std::size_t o = h * hw_;
    r52::pack52(m, d_, n_.data() + o);
    r52::pack52(beta - m.mod(beta).mod_inverse(beta), 1, &k0_[h]);
    r52::pack52((r * r).mod(m), d_, rr_.data() + o);
    r52::pack52(r.mod(m), d_, one_m_.data() + o);
    one_plain_[o] = 1;
  }
}

void IfmaAmmCtx::pack(std::span<const bigint::BigInt* const> xs,
                      Rep& out) const {
  assert(xs.size() == halves());
  out.assign(halves() * hw_, 0);
  for (std::size_t h = 0; h < halves(); ++h) {
    r52::pack52(*xs[h], d_, out.data() + h * hw_);
  }
}

void IfmaAmmCtx::amm(const Rep& a, const Rep& b, Rep& out,
                     Workspace& ws) const {
  assert(a.size() == rep_size() && b.size() == rep_size());
  out.resize(rep_size());
  if (use_ifma_) {
    ifma::amm(a.data(), b.data(), n_.data(), k0_.data(), d_, halves(),
              out.data());
    return;
  }
  if (ws.acc.size() < 2 * d_) ws.acc.resize(2 * d_);
  for (std::size_t h = 0; h < halves(); ++h) {
    const std::size_t o = h * hw_;
    r52::amm_g(a.data() + o, b.data() + o, n_.data() + o, k0_[h], d_,
               ws.acc.data(), out.data() + o);
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(o + d_),
              out.begin() + static_cast<std::ptrdiff_t>(o + hw_), 0);
  }
}

void IfmaAmmCtx::mul(const Rep& a, const Rep& b, Rep& out,
                     Workspace& ws) const {
  ws.muls += halves();
  amm(a, b, out, ws);
}

void IfmaAmmCtx::sqr(const Rep& a, Rep& out, Workspace& ws) const {
  ws.sqrs += halves();
  amm(a, a, out, ws);
}

void IfmaAmmCtx::to_mont(std::span<const bigint::BigInt* const> xs, Rep& out,
                         Workspace& ws) const {
  for (std::size_t h = 0; h < halves(); ++h) {
    if (xs[h]->is_negative() || *xs[h] >= m_[h]) {
      throw std::invalid_argument("ifma52 to_mont: x must be in [0, m)");
    }
  }
  pack(xs, ws.rep);
  mul(ws.rep, rr_, out, ws);
}

void IfmaAmmCtx::from_mont(const Rep& a,
                           std::span<bigint::BigInt* const> outs,
                           Workspace& ws) const {
  // (a + Y*m) / R < (2m + R*m) / R, so each half is at most m: one
  // constant-time conditional subtract brings it into [0, m).
  mul(a, one_plain_, ws.rep, ws);
  for (std::size_t h = 0; h < halves(); ++h) {
    std::uint64_t* x = ws.rep.data() + h * hw_;
    r52::ct_sub_mod52_g<std::uint64_t>(x, 0, n_.data() + h * hw_, d_);
    r52::unpack52(x, d_, 1, ws.u32, *outs[h]);
  }
  publish_counts(ws);
}

void IfmaAmmCtx::publish_counts(Workspace& ws) const {
#if PHISSL_OBS_ENABLED
  static obs::MontKernelCounters k("ifma52");
  if (ws.muls != 0) k.mul.inc(ws.muls);
  if (ws.sqrs != 0) k.sqr.inc(ws.sqrs);
  if (ws.muls + ws.sqrs != 0) k.redc.inc(ws.muls + ws.sqrs);
#endif
  ws.muls = 0;
  ws.sqrs = 0;
}

}  // namespace phissl::mont
