#include "mont/ifma_mont.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "mont/ifma_kernels.hpp"
#include "mont/radix52_kernel.hpp"
#include "obs/metrics.hpp"
#include "util/cpu.hpp"

namespace phissl::mont {

#if PHISSL_OBS_ENABLED
namespace {
obs::MontKernelCounters& kernel_counters() {
  static obs::MontKernelCounters k("ifma52");
  return k;
}
}  // namespace
#endif

namespace {

constexpr unsigned kDb = r52::kDigitBits;

IfmaMontCtx::Workspace& tls_workspace() {
  static thread_local IfmaMontCtx::Workspace ws;
  return ws;
}

}  // namespace

IfmaMontCtx::IfmaMontCtx(const bigint::BigInt& m, bool force_portable)
    : m_(m) {
  if (m.is_negative() || m <= bigint::BigInt{1} || m.is_even()) {
    throw std::invalid_argument("IfmaMontCtx: modulus must be odd and > 1");
  }
  // The truncated-REDC carry recovery reads columns d-2 and d-1 and the
  // upper product starts at band d-3, so d >= 3; extra zero digits at the
  // top are harmless (they only add zero products).
  const std::size_t bits = m.bit_length();
  d_ = (bits + kDb - 1) / kDb;
  if (d_ < 3) d_ = 3;
  pd_ = (d_ + 7) & ~std::size_t{7};
  use_ifma_ = !force_portable && ifma::compiled() &&
              util::cpu_features().avx512ifma;

  pack(m, n52_);
  bigint::BigInt r{1};
  r <<= kDb * d_;
  // mu = -m^-1 mod R = R - (m^-1 mod R); m odd => the inverse exists and
  // is nonzero, so the subtraction stays in [1, R).
  pack(r - m.mod_inverse(r), mu52_);
  pack((r * r).mod(m_), rr_rep_);
  one_plain_.assign(pd_, 0);
  one_plain_[0] = 1;
  pack(r.mod(m_), one_m_);

  // Pre-padded copies of n and mu for the column-blocked kernels: 16 zero
  // words in front, the digits, zeros through index 16 + pd + 7.
  n_pad_.assign(pd_ + 24, 0);
  mu_pad_.assign(pd_ + 24, 0);
  std::memcpy(n_pad_.data() + 16, n52_.data(), pd_ * sizeof(std::uint64_t));
  std::memcpy(mu_pad_.data() + 16, mu52_.data(), pd_ * sizeof(std::uint64_t));
}

void IfmaMontCtx::pack(const bigint::BigInt& x, Rep& out) const {
  assert(!x.is_negative());
  assert(x.bit_length() <= kDb * d_);
  out.assign(pd_, 0);
  for (std::size_t j = 0; j < d_; ++j) {
    // bits_window reads at most 32 bits, so compose each 52-bit digit
    // from a 32-bit low part and a 20-bit high part.
    const std::size_t lo = j * kDb;
    out[j] = x.bits_window(lo, 32) |
             (static_cast<std::uint64_t>(x.bits_window(lo + 32, 20)) << 32);
  }
}

void IfmaMontCtx::prepare(Workspace& ws) const {
  // The vector kernels write whole 8-word blocks of t and q, and column
  // blocks up to 8 words either side of cols (see ifma_kernels.hpp).
  const std::size_t cb = (2 * d_ + 7) & ~std::size_t{7};
  if (use_ifma_) {
    if (ws.cols64.size() < cb + 16) ws.cols64.resize(cb + 16);
    if (ws.opad.size() < pd_ + 24) ws.opad.resize(pd_ + 24);
  } else {
    if (ws.cols.size() < 2 * d_) ws.cols.resize(2 * d_);
  }
  if (ws.t.size() < cb) ws.t.resize(cb);
  if (ws.q.size() < pd_) ws.q.resize(pd_);
}

IfmaMontCtx::Rep IfmaMontCtx::to_mont(const bigint::BigInt& x) const {
  Rep out;
  to_mont(x, out, tls_workspace());
  publish_counts(tls_workspace());
  return out;
}

void IfmaMontCtx::to_mont(const bigint::BigInt& x, Rep& out,
                          Workspace& ws) const {
  if (x.is_negative() || x >= m_) {
    throw std::invalid_argument("IfmaMontCtx::to_mont: x must be in [0, m)");
  }
  pack(x, ws.rep);
  mul(ws.rep, rr_rep_, out, ws);
}

bigint::BigInt IfmaMontCtx::from_mont(const Rep& a) const {
  bigint::BigInt out;
  from_mont(a, out, tls_workspace());
  return out;
}

void IfmaMontCtx::from_mont(const Rep& a, bigint::BigInt& out,
                            Workspace& ws) const {
  mul(a, one_plain_, ws.rep, ws);
  // assign_from_digits takes digits of at most 32 bits: split each 52-bit
  // digit into two 26-bit halves.
  ws.u32.assign(2 * d_, 0);
  constexpr std::uint32_t kHalfMask = (1u << 26) - 1;
  for (std::size_t j = 0; j < d_; ++j) {
    ws.u32[2 * j] = static_cast<std::uint32_t>(ws.rep[j]) & kHalfMask;
    ws.u32[2 * j + 1] = static_cast<std::uint32_t>(ws.rep[j] >> 26) & kHalfMask;
  }
  out.assign_from_digits(ws.u32, 26);
  publish_counts(ws);
}

void IfmaMontCtx::publish_counts(Workspace& ws) const {
#if PHISSL_OBS_ENABLED
  if (ws.muls != 0) kernel_counters().mul.inc(ws.muls);
  if (ws.sqrs != 0) kernel_counters().sqr.inc(ws.sqrs);
  if (ws.muls + ws.sqrs != 0) kernel_counters().redc.inc(ws.muls + ws.sqrs);
#endif
  ws.muls = 0;
  ws.sqrs = 0;
}

void IfmaMontCtx::mul(const Rep& a, const Rep& b, Rep& out) const {
  mul(a, b, out, tls_workspace());
  publish_counts(tls_workspace());
}

void IfmaMontCtx::mul(const Rep& a, const Rep& b, Rep& out,
                      Workspace& ws) const {
  ++ws.muls;
  assert(a.size() == pd_ && b.size() == pd_);
  prepare(ws);
  out.resize(pd_);
  if (use_ifma_) {
    ifma::mul(a.data(), b.data(), n_pad_.data() + 16, mu_pad_.data() + 16, d_,
              ws.opad.data(), ws.cols64.data() + 8, ws.t.data(), ws.q.data(),
              out.data());
  } else {
    r52::mont_mul_g(a.data(), b.data(), n52_.data(), mu52_.data(), d_,
                    ws.cols.data(), ws.t.data(), ws.q.data(), out.data());
    for (std::size_t k = d_; k < pd_; ++k) out[k] = 0;
  }
}

void IfmaMontCtx::sqr(const Rep& a, Rep& out) const {
  sqr(a, out, tls_workspace());
  publish_counts(tls_workspace());
}

void IfmaMontCtx::sqr(const Rep& a, Rep& out, Workspace& ws) const {
  ++ws.sqrs;
  assert(a.size() == pd_);
  prepare(ws);
  out.resize(pd_);
  if (use_ifma_) {
    ifma::sqr(a.data(), n_pad_.data() + 16, mu_pad_.data() + 16, d_,
              ws.opad.data(), ws.cols64.data() + 8, ws.t.data(), ws.q.data(),
              out.data());
  } else {
    r52::mont_sqr_g(a.data(), n52_.data(), mu52_.data(), d_, ws.cols.data(),
                    ws.t.data(), ws.q.data(), out.data());
    for (std::size_t k = d_; k < pd_; ++k) out[k] = 0;
  }
}

}  // namespace phissl::mont
