// Dual-modulus CRT context: see ifma_pair.hpp. Nothing here branches on or
// indexes by a residue or exponent digit.
//
// phissl:ct-kernel — tools/phissl_lint.py bans raw index extraction here.
#include "mont/ifma_pair.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "mont/ifma_kernels.hpp"
#include "mont/radix52_kernel.hpp"
#include "obs/metrics.hpp"
#include "util/cpu.hpp"

namespace phissl::mont {

namespace {

constexpr unsigned kDb = r52::kDigitBits;

std::uint64_t digit(const bigint::BigInt& x, std::size_t j) {
  // bits_window reads at most 32 bits: a 32-bit low and a 20-bit high part.
  const std::size_t lo = j * kDb;
  return x.bits_window(lo, 32) |
         (static_cast<std::uint64_t>(x.bits_window(lo + 32, 20)) << 32);
}

}  // namespace

IfmaPairCtx::IfmaPairCtx(const bigint::BigInt& p, const bigint::BigInt& q,
                         bool force_portable)
    : m_{p, q} {
  for (const bigint::BigInt& m : m_) {
    if (m.is_negative() || m <= bigint::BigInt{1} || m.is_even()) {
      throw std::invalid_argument("IfmaPairCtx: moduli must be odd and > 1");
    }
    // 4m < beta^d keeps every almost-Montgomery residue below 2m.
    d_ = std::max(d_, (m.bit_length() + 2 + kDb - 1) / kDb);
  }
  hw_ = (d_ + 7) & ~std::size_t{7};
  use_ifma_ = !force_portable && ifma::compiled() &&
              util::cpu_features().avx512ifma && d_ <= ifma::kPairMaxDigits;

  const bigint::BigInt beta = bigint::BigInt{1} << kDb;
  bigint::BigInt r{1};
  r <<= kDb * d_;
  std::array<bigint::BigInt, 2> rr, rm;
  for (std::size_t h = 0; h < 2; ++h) {
    k0_[h] = digit(beta - m_[h].mod(beta).mod_inverse(beta), 0);
    rr[h] = (r * r).mod(m_[h]);
    rm[h] = r.mod(m_[h]);
  }
  pack(p, q, n_);
  pack(rr[0], rr[1], rr_);
  pack(rm[0], rm[1], one_m_);
  pack(bigint::BigInt{1}, bigint::BigInt{1}, one_plain_);
}

void IfmaPairCtx::pack(const bigint::BigInt& xp, const bigint::BigInt& xq,
                       Rep& out) const {
  assert(!xp.is_negative() && xp.bit_length() <= kDb * d_);
  assert(!xq.is_negative() && xq.bit_length() <= kDb * d_);
  out.assign(2 * hw_, 0);
  for (std::size_t j = 0; j < d_; ++j) {
    out[j] = digit(xp, j);
    out[hw_ + j] = digit(xq, j);
  }
}

void IfmaPairCtx::amm(const Rep& a, const Rep& b, Rep& out,
                      Workspace& ws) const {
  assert(a.size() == 2 * hw_ && b.size() == 2 * hw_);
  out.resize(2 * hw_);
  if (use_ifma_) {
    ifma::pair_amm(a.data(), b.data(), n_.data(), k0_.data(), d_, out.data());
    return;
  }
  if (ws.acc.size() < d_) ws.acc.resize(d_);
  for (std::size_t h = 0; h < 2; ++h) {
    const std::size_t o = h * hw_;
    r52::amm_g(a.data() + o, b.data() + o, n_.data() + o, k0_[h], d_,
               ws.acc.data(), out.data() + o);
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(o + d_),
              out.begin() + static_cast<std::ptrdiff_t>(o + hw_), 0);
  }
}

void IfmaPairCtx::mul(const Rep& a, const Rep& b, Rep& out,
                      Workspace& ws) const {
  ws.muls += 2;
  amm(a, b, out, ws);
}

void IfmaPairCtx::sqr(const Rep& a, Rep& out, Workspace& ws) const {
  ws.sqrs += 2;
  amm(a, a, out, ws);
}

void IfmaPairCtx::to_mont(const bigint::BigInt& xp, const bigint::BigInt& xq,
                          Rep& out, Workspace& ws) const {
  if (xp.is_negative() || xp >= m_[0] || xq.is_negative() || xq >= m_[1]) {
    throw std::invalid_argument(
        "IfmaPairCtx::to_mont: x must be in [0, p) x [0, q)");
  }
  pack(xp, xq, ws.rep);
  mul(ws.rep, rr_, out, ws);
}

void IfmaPairCtx::from_mont(const Rep& a, bigint::BigInt& out_p,
                            bigint::BigInt& out_q, Workspace& ws) const {
  // (a + Y*m) / R < (2m + R*m) / R, so each half is at most m: one
  // constant-time conditional subtract brings it into [0, m).
  mul(a, one_plain_, ws.rep, ws);
  bigint::BigInt* const outs[2] = {&out_p, &out_q};
  constexpr std::uint32_t kHalfMask = (1u << 26) - 1;
  for (std::size_t h = 0; h < 2; ++h) {
    std::uint64_t* x = ws.rep.data() + h * hw_;
    r52::ct_sub_mod52_g<std::uint64_t>(x, 0, n_.data() + h * hw_, d_);
    // assign_from_digits takes digits of at most 32 bits: two 26-bit
    // halves per 52-bit digit.
    ws.u32.assign(2 * d_, 0);
    for (std::size_t j = 0; j < d_; ++j) {
      ws.u32[2 * j] = static_cast<std::uint32_t>(x[j]) & kHalfMask;
      ws.u32[2 * j + 1] = static_cast<std::uint32_t>(x[j] >> 26) & kHalfMask;
    }
    outs[h]->assign_from_digits(ws.u32, 26);
  }
  publish_counts(ws);
}

void IfmaPairCtx::publish_counts(Workspace& ws) const {
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
