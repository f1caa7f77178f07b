#include "mont/batch.hpp"

#include <cassert>
#include <stdexcept>

#include "mont/ifma_kernels.hpp"
#include "mont/modexp.hpp"
#include "mont/mont32.hpp"  // neg_inv_u32
#include "mont/radix52_kernel.hpp"
#include "obs/metrics.hpp"
#include "simd/vec.hpp"
#include "util/cpu.hpp"

namespace phissl::mont {

#if PHISSL_OBS_ENABLED
namespace {
// One registry lookup ever; each kernel call pays one guard check plus
// two sharded relaxed increments (mul-or-sqr + the fused REDC).
obs::MontKernelCounters& kernel_counters() {
  static obs::MontKernelCounters k("batch");
  return k;
}
}  // namespace
#endif

using simd::Mask16;
using simd::VecU32x16;

namespace {
constexpr std::size_t kB = BatchVectorMontCtx::kBatch;

BatchVectorMontCtx::Workspace& tls_workspace() {
  static thread_local BatchVectorMontCtx::Workspace ws;
  return ws;
}
}  // namespace

BatchVectorMontCtx::BatchVectorMontCtx(const bigint::BigInt& m,
                                       unsigned digit_bits)
    : m_(m), digit_bits_(digit_bits) {
  if (m.is_negative() || m <= bigint::BigInt{1} || m.is_even()) {
    throw std::invalid_argument(
        "BatchVectorMontCtx: modulus must be odd and > 1");
  }
  if (digit_bits < 8 || digit_bits > 29) {
    throw std::invalid_argument(
        "BatchVectorMontCtx: digit_bits must be in [8, 29]");
  }
  digit_mask_ = (1u << digit_bits) - 1u;
  d_ = (m.bit_length() + digit_bits - 1) / digit_bits;
  // Same 64-bit column bound as VectorMontCtx (per lane); the squaring
  // kernel's doubled off-diagonal + diagonal stays inside it too.
  const unsigned product_bits = 2 * digit_bits;
  if (product_bits >= 63 ||
      (static_cast<std::uint64_t>(2 * d_) >
       (std::uint64_t{1} << (63 - product_bits)))) {
    throw std::invalid_argument(
        "BatchVectorMontCtx: digit_bits too large for this modulus size");
  }
  n_.assign(d_, 0);
  for (std::size_t j = 0; j < d_; ++j) {
    n_[j] = m.bits_window(j * digit_bits_, digit_bits_);
  }
  assert((n_[0] & 1u) == 1u);
  n0_ = neg_inv_u32(n_[0]) & digit_mask_;
  bigint::BigInt r{1};
  r <<= digit_bits_ * d_;
  rr_ = (r * r).mod(m_);
  const bigint::BigInt one_m = r.mod(m_);
  rr_rep_.assign(d_ * kB, 0);
  one_plain_.assign(d_ * kB, 0);
  one_m_.assign(d_ * kB, 0);
  for (std::size_t j = 0; j < d_; ++j) {
    const std::uint32_t rr_digit = rr_.bits_window(j * digit_bits_, digit_bits_);
    const std::uint32_t om_digit =
        one_m.bits_window(j * digit_bits_, digit_bits_);
    for (std::size_t l = 0; l < kB; ++l) {
      rr_rep_[j * kB + l] = rr_digit;
      one_m_[j * kB + l] = om_digit;
    }
  }
  for (std::size_t l = 0; l < kB; ++l) one_plain_[l] = 1;
}

BatchVectorMontCtx::Rep BatchVectorMontCtx::to_mont(
    std::span<const bigint::BigInt> xs) const {
  Rep out;
  to_mont(xs, out, tls_workspace());
  return out;
}

void BatchVectorMontCtx::to_mont(std::span<const bigint::BigInt> xs, Rep& out,
                                 Workspace& ws) const {
  if (xs.size() != kB) {
    throw std::invalid_argument("BatchVectorMontCtx::to_mont: need 16 values");
  }
  ws.rep.assign(d_ * kB, 0);
  for (std::size_t l = 0; l < kB; ++l) {
    if (xs[l].is_negative() || xs[l] >= m_) {
      throw std::invalid_argument(
          "BatchVectorMontCtx::to_mont: values must be in [0, m)");
    }
    for (std::size_t j = 0; j < d_; ++j) {
      ws.rep[j * kB + l] = xs[l].bits_window(j * digit_bits_, digit_bits_);
    }
  }
  mul(ws.rep, rr_rep_, out, ws);
}

std::array<bigint::BigInt, BatchVectorMontCtx::kBatch>
BatchVectorMontCtx::from_mont(const Rep& a) const {
  std::array<bigint::BigInt, kB> out;
  from_mont(a, out, tls_workspace());
  return out;
}

void BatchVectorMontCtx::from_mont(const Rep& a, std::span<bigint::BigInt> out,
                                   Workspace& ws) const {
  if (out.size() != kB) {
    throw std::invalid_argument(
        "BatchVectorMontCtx::from_mont: need 16 outputs");
  }
  // Multiply by 1 (per lane) to leave Montgomery form.
  mul(a, one_plain_, ws.rep, ws);
  ws.lane.assign(d_, 0);
  for (std::size_t l = 0; l < kB; ++l) {
    for (std::size_t j = 0; j < d_; ++j) ws.lane[j] = ws.rep[j * kB + l];
    out[l].assign_from_digits(ws.lane, digit_bits_);
  }
}

void BatchVectorMontCtx::mul(const Rep& a, const Rep& b, Rep& out) const {
  mul(a, b, out, tls_workspace());
}

void BatchVectorMontCtx::mul(const Rep& a, const Rep& b, Rep& out,
                             Workspace& ws) const {
#if PHISSL_OBS_ENABLED
  kernel_counters().mul.inc();
  kernel_counters().redc.inc();
#endif
  assert(a.size() == d_ * kB && b.size() == d_ * kB);

  const std::size_t cols = 2 * d_ + 1;
  ws.acc_lo.assign(cols * kB, 0);
  ws.acc_hi.assign(cols * kB, 0);
  std::uint32_t* acc_lo = ws.acc_lo.data();
  std::uint32_t* acc_hi = ws.acc_hi.data();

  const VecU32x16 vmask = VecU32x16::broadcast(digit_mask_);
  const VecU32x16 vn0 = VecU32x16::broadcast(n0_);
  const VecU32x16 vone = VecU32x16::broadcast(1);
  const unsigned db = digit_bits_;

  for (std::size_t i = 0; i < d_; ++i) {
    const VecU32x16 va = VecU32x16::load(&a[i * kB]);

    // Per-lane quotient digit from column i plus the a_i*b_0 contribution.
    const VecU32x16 vb0 = VecU32x16::load(&b[0]);
    const VecU32x16 t0 = bit_and(
        add(VecU32x16::load(&acc_lo[i * kB]), mul_lo(va, vb0)), vmask);
    const VecU32x16 vq = bit_and(mul_lo(t0, vn0), vmask);

    // Fused sweep: acc[i+j] += a_i*b_j + q*n_j, lane-wise.
    for (std::size_t j = 0; j < d_; ++j) {
      const VecU32x16 vb = VecU32x16::load(&b[j * kB]);
      const VecU32x16 vn = VecU32x16::broadcast(n_[j]);
      VecU32x16 lo = VecU32x16::load(&acc_lo[(i + j) * kB]);
      VecU32x16 hi = VecU32x16::load(&acc_hi[(i + j) * kB]);
      simd::add_wide_product(lo, hi, mul_lo(va, vb), mul_hi(va, vb));
      simd::add_wide_product(lo, hi, mul_lo(vq, vn), mul_hi(vq, vn));
      lo.store(&acc_lo[(i + j) * kB]);
      hi.store(&acc_hi[(i + j) * kB]);
    }

    // Ripple carry out of column i into column i+1, lane-wise.
    // carry = col_i >> db, a value up to ~2^(64-db): carried as a
    // (lo, hi) pair and wide-added into the next column.
    const VecU32x16 lo_i = VecU32x16::load(&acc_lo[i * kB]);
    const VecU32x16 hi_i = VecU32x16::load(&acc_hi[i * kB]);
    const VecU32x16 carry_lo = bit_or(shr(lo_i, db), shl(hi_i, 32 - db));
    const VecU32x16 carry_hi = shr(hi_i, db);

    VecU32x16 lo_n = VecU32x16::load(&acc_lo[(i + 1) * kB]);
    VecU32x16 hi_n = VecU32x16::load(&acc_hi[(i + 1) * kB]);
    const VecU32x16 sum = add(lo_n, carry_lo);
    const Mask16 cmask = cmp_lt_u32(sum, lo_n);
    lo_n = sum;
    hi_n = add(hi_n, carry_hi);
    hi_n = masked_add(cmask, hi_n, vone);
    lo_n.store(&acc_lo[(i + 1) * kB]);
    hi_n.store(&acc_hi[(i + 1) * kB]);
  }

  finalize_lanes(acc_lo, acc_hi, out);
}

void BatchVectorMontCtx::sqr(const Rep& a, Rep& out) const {
  sqr(a, out, tls_workspace());
}

void BatchVectorMontCtx::sqr(const Rep& a, Rep& out, Workspace& ws) const {
#if PHISSL_OBS_ENABLED
  kernel_counters().sqr.inc();
  kernel_counters().redc.inc();
#endif
  assert(a.size() == d_ * kB);

  const std::size_t cols = 2 * d_ + 1;
  ws.acc_lo.assign(cols * kB, 0);
  ws.acc_hi.assign(cols * kB, 0);
  std::uint32_t* acc_lo = ws.acc_lo.data();
  std::uint32_t* acc_hi = ws.acc_hi.data();

  const VecU32x16 vmask = VecU32x16::broadcast(digit_mask_);
  const VecU32x16 vn0 = VecU32x16::broadcast(n0_);
  const VecU32x16 vone = VecU32x16::broadcast(1);
  const unsigned db = digit_bits_;

  // Single fused sweep per outer iteration (see VectorMontCtx::sqr for
  // the schedule argument): step i adds the diagonal a_i^2 into column 2i
  // (first, so for i = 0 the quotient digit sees it), then one pass over
  // j adds the q*n row everywhere and the off-diagonal row for j > i with
  // a pre-doubled 2*a_i operand. Lane-wise throughout; no masking needed
  // since the inner loop runs over digit indices and the 16 lanes of one
  // index are independent operand sets.
  for (std::size_t i = 0; i < d_; ++i) {
    const VecU32x16 va = VecU32x16::load(&a[i * kB]);
    {
      VecU32x16 lo = VecU32x16::load(&acc_lo[2 * i * kB]);
      VecU32x16 hi = VecU32x16::load(&acc_hi[2 * i * kB]);
      simd::add_wide_product(lo, hi, mul_lo(va, va), mul_hi(va, va));
      lo.store(&acc_lo[2 * i * kB]);
      hi.store(&acc_hi[2 * i * kB]);
    }

    const VecU32x16 t0 = bit_and(VecU32x16::load(&acc_lo[i * kB]), vmask);
    const VecU32x16 vq = bit_and(mul_lo(t0, vn0), vmask);
    const VecU32x16 va2 = shl(va, 1);

    std::size_t j = 0;
    for (; j <= i && j < d_; ++j) {  // prefix: q*n row only
      const VecU32x16 vn = VecU32x16::broadcast(n_[j]);
      VecU32x16 lo = VecU32x16::load(&acc_lo[(i + j) * kB]);
      VecU32x16 hi = VecU32x16::load(&acc_hi[(i + j) * kB]);
      simd::add_wide_product(lo, hi, mul_lo(vq, vn), mul_hi(vq, vn));
      lo.store(&acc_lo[(i + j) * kB]);
      hi.store(&acc_hi[(i + j) * kB]);
    }
    for (; j < d_; ++j) {  // fused q*n + doubled off-diagonal
      const VecU32x16 vn = VecU32x16::broadcast(n_[j]);
      const VecU32x16 vaj = VecU32x16::load(&a[j * kB]);
      VecU32x16 lo = VecU32x16::load(&acc_lo[(i + j) * kB]);
      VecU32x16 hi = VecU32x16::load(&acc_hi[(i + j) * kB]);
      simd::add_wide_product(lo, hi, mul_lo(vq, vn), mul_hi(vq, vn));
      simd::add_wide_product(lo, hi, mul_lo(va2, vaj), mul_hi(va2, vaj));
      lo.store(&acc_lo[(i + j) * kB]);
      hi.store(&acc_hi[(i + j) * kB]);
    }

    const VecU32x16 lo_i = VecU32x16::load(&acc_lo[i * kB]);
    const VecU32x16 hi_i = VecU32x16::load(&acc_hi[i * kB]);
    const VecU32x16 carry_lo = bit_or(shr(lo_i, db), shl(hi_i, 32 - db));
    const VecU32x16 carry_hi = shr(hi_i, db);

    VecU32x16 lo_n = VecU32x16::load(&acc_lo[(i + 1) * kB]);
    VecU32x16 hi_n = VecU32x16::load(&acc_hi[(i + 1) * kB]);
    const VecU32x16 sum = add(lo_n, carry_lo);
    const Mask16 cmask = cmp_lt_u32(sum, lo_n);
    lo_n = sum;
    hi_n = add(hi_n, carry_hi);
    hi_n = masked_add(cmask, hi_n, vone);
    lo_n.store(&acc_lo[(i + 1) * kB]);
    hi_n.store(&acc_hi[(i + 1) * kB]);
  }

  finalize_lanes(acc_lo, acc_hi, out);
}

void BatchVectorMontCtx::finalize_lanes(const std::uint32_t* acc_lo,
                                        const std::uint32_t* acc_hi,
                                        Rep& out) const {
  // Per-lane normalization and CONSTANT-TIME conditional subtract (scalar;
  // O(d) per lane, negligible next to the O(d^2) sweeps). A full
  // branchless borrow scan decides, then the subtract always runs with n
  // masked in or out — no early exit, no value-dependent branches.
  out.assign(d_ * kB, 0);
  for (std::size_t l = 0; l < kB; ++l) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < d_; ++j) {
      const std::size_t idx = (d_ + j) * kB + l;
      const std::uint64_t v =
          (acc_lo[idx] | (static_cast<std::uint64_t>(acc_hi[idx]) << 32)) +
          carry;
      out[j * kB + l] = static_cast<std::uint32_t>(v) & digit_mask_;
      carry = v >> digit_bits_;
    }
    assert(carry <= 1);
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < d_; ++j) {
      const std::uint64_t diff =
          static_cast<std::uint64_t>(out[j * kB + l]) - n_[j] - borrow;
      borrow = (diff >> 63) & 1u;
    }
    const std::uint32_t ge =
        static_cast<std::uint32_t>((carry | (1u - borrow)) != 0);
    const std::uint32_t mask = 0u - ge;
    borrow = 0;
    for (std::size_t j = 0; j < d_; ++j) {
      const std::uint64_t diff = static_cast<std::uint64_t>(out[j * kB + l]) -
                                 (n_[j] & mask) - borrow;
      out[j * kB + l] = static_cast<std::uint32_t>(diff) & digit_mask_;
      borrow = (diff >> 63) & 1u;
    }
    assert(!ge || borrow == carry);
  }
}

BatchVectorMontCtx::Rep BatchVectorMontCtx::fixed_window_exp(
    const Rep& base, const bigint::BigInt& exp, int window) const {
  if (window <= 0) window = choose_window(exp.bit_length());
  return fixed_window_exp_rep(*this, base, exp, window);
}

std::array<bigint::BigInt, BatchVectorMontCtx::kBatch>
BatchVectorMontCtx::mod_exp(std::span<const bigint::BigInt> bases,
                            const bigint::BigInt& exp, int window) const {
  ExpWorkspace<BatchVectorMontCtx> ws;
  std::array<bigint::BigInt, kB> out;
  mod_exp(bases, exp, out, ws, window);
  return out;
}

void BatchVectorMontCtx::mod_exp(std::span<const bigint::BigInt> bases,
                                 const bigint::BigInt& exp,
                                 std::span<bigint::BigInt> out,
                                 ExpWorkspace<BatchVectorMontCtx>& ws,
                                 int window) const {
  if (window <= 0) window = choose_window(exp.bit_length());
  to_mont(bases, ws.base_m, ws.kernel);
  fixed_window_exp_rep(*this, ws.base_m, exp, window, ws.res, ws);
  from_mont(ws.res, out, ws.kernel);
}

// -- BatchIfmaMontCtx ------------------------------------------------------

#if PHISSL_OBS_ENABLED
namespace {
obs::MontKernelCounters& ifma_batch_counters() {
  static obs::MontKernelCounters k("ifma52-batch");
  return k;
}
}  // namespace
#endif

namespace {

constexpr unsigned kDb52 = r52::kDigitBits;

BatchIfmaMontCtx::Workspace& ifma_tls_workspace() {
  static thread_local BatchIfmaMontCtx::Workspace ws;
  return ws;
}

}  // namespace

BatchIfmaMontCtx::BatchIfmaMontCtx(const bigint::BigInt& m,
                                   bool force_portable)
    : m_(m) {
  if (m.is_negative() || m <= bigint::BigInt{1} || m.is_even()) {
    throw std::invalid_argument(
        "BatchIfmaMontCtx: modulus must be odd and > 1");
  }
  d_ = (m.bit_length() + kDb52 - 1) / kDb52;
  if (d_ < 3) d_ = 3;  // the truncated REDC reads columns d-3 .. d-1
  use_ifma_ = !force_portable && ifma::compiled() &&
              util::cpu_features().avx512ifma;

  bigint::BigInt r{1};
  r <<= kDb52 * d_;
  // The vpmadd52 batch kernels read n and mu past both ends.
  n52_.assign(d_ + 2 * ifma::kBatchPad, 0);
  mu52_ = n52_;
  r52::pack52(m, d_, n52_.data() + ifma::kBatchPad);
  r52::pack52(r - m.mod_inverse(r), d_, mu52_.data() + ifma::kBatchPad);

  rr_rep_.assign(d_ * kBatch, 0);
  one_plain_ = one_m_ = rr_rep_;
  const bigint::BigInt rr = (r * r).mod(m_);
  const bigint::BigInt rm = r.mod(m_);
  for (std::size_t l = 0; l < kBatch; ++l) {
    r52::pack52(rr, d_, rr_rep_.data() + l, kBatch);
    r52::pack52(rm, d_, one_m_.data() + l, kBatch);
    one_plain_[l] = 1;
  }
}

void BatchIfmaMontCtx::prepare(Workspace& ws) const {
  if (use_ifma_) {
    const std::size_t pad = (d_ + 2 * ifma::kBatchPad) * kBatch;
    if (ws.pad.size() < pad) ws.pad.resize(pad);
    if (ws.t.size() < 2 * d_ * kBatch) ws.t.resize(2 * d_ * kBatch);
    if (ws.q.size() < d_ * kBatch) ws.q.resize(d_ * kBatch);
  } else {
    if (ws.cols.size() < 2 * d_) ws.cols.resize(2 * d_);
    if (ws.la.size() < d_) ws.la.resize(d_);
    if (ws.lb.size() < d_) ws.lb.resize(d_);
    if (ws.lt.size() < 2 * d_) ws.lt.resize(2 * d_);
    if (ws.lq.size() < d_) ws.lq.resize(d_);
  }
}

BatchIfmaMontCtx::Rep BatchIfmaMontCtx::to_mont(
    std::span<const bigint::BigInt> xs) const {
  Rep out;
  to_mont(xs, out, ifma_tls_workspace());
  return out;
}

void BatchIfmaMontCtx::to_mont(std::span<const bigint::BigInt> xs, Rep& out,
                               Workspace& ws) const {
  if (xs.size() != kBatch) {
    throw std::invalid_argument("BatchIfmaMontCtx::to_mont: need 16 values");
  }
  ws.rep.assign(d_ * kBatch, 0);
  for (std::size_t l = 0; l < kBatch; ++l) {
    if (xs[l].is_negative() || xs[l] >= m_) {
      throw std::invalid_argument(
          "BatchIfmaMontCtx::to_mont: values must be in [0, m)");
    }
    r52::pack52(xs[l], d_, ws.rep.data() + l, kBatch);
  }
  mul(ws.rep, rr_rep_, out, ws);
}

std::array<bigint::BigInt, BatchIfmaMontCtx::kBatch>
BatchIfmaMontCtx::from_mont(const Rep& a) const {
  std::array<bigint::BigInt, kBatch> out;
  from_mont(a, out, ifma_tls_workspace());
  return out;
}

void BatchIfmaMontCtx::from_mont(const Rep& a, std::span<bigint::BigInt> out,
                                 Workspace& ws) const {
  if (out.size() != kBatch) {
    throw std::invalid_argument(
        "BatchIfmaMontCtx::from_mont: need 16 outputs");
  }
  mul(a, one_plain_, ws.rep, ws);
  for (std::size_t l = 0; l < kBatch; ++l) {
    r52::unpack52(ws.rep.data() + l, d_, kBatch, ws.u32, out[l]);
  }
}

void BatchIfmaMontCtx::mul(const Rep& a, const Rep& b, Rep& out) const {
  mul(a, b, out, ifma_tls_workspace());
}

void BatchIfmaMontCtx::mul(const Rep& a, const Rep& b, Rep& out,
                           Workspace& ws) const {
#if PHISSL_OBS_ENABLED
  ifma_batch_counters().mul.inc();
  ifma_batch_counters().redc.inc();
#endif
  assert(a.size() == d_ * kBatch && b.size() == d_ * kBatch);
  prepare(ws);
  out.resize(d_ * kBatch);
  const std::uint64_t* n = n52_.data() + ifma::kBatchPad;
  const std::uint64_t* mu = mu52_.data() + ifma::kBatchPad;
  if (use_ifma_) {
    ifma::batch_mul(a.data(), b.data(), n, mu, d_, ws.pad.data(), ws.t.data(),
                    ws.q.data(), out.data());
  } else {
    // Gather each lane contiguously, run the verified generic kernel,
    // scatter back — O(d) shuffling around the O(d^2) kernel.
    for (std::size_t l = 0; l < kBatch; ++l) {
      for (std::size_t j = 0; j < d_; ++j) {
        ws.la[j] = a[j * kBatch + l];
        ws.lb[j] = b[j * kBatch + l];
      }
      r52::mont_mul_g(ws.la.data(), ws.lb.data(), n, mu, d_, ws.cols.data(),
                      ws.lt.data(), ws.lq.data(), ws.la.data());
      for (std::size_t j = 0; j < d_; ++j) out[j * kBatch + l] = ws.la[j];
    }
  }
}

void BatchIfmaMontCtx::sqr(const Rep& a, Rep& out) const {
  sqr(a, out, ifma_tls_workspace());
}

void BatchIfmaMontCtx::sqr(const Rep& a, Rep& out, Workspace& ws) const {
#if PHISSL_OBS_ENABLED
  ifma_batch_counters().sqr.inc();
  ifma_batch_counters().redc.inc();
#endif
  assert(a.size() == d_ * kBatch);
  prepare(ws);
  out.resize(d_ * kBatch);
  const std::uint64_t* n = n52_.data() + ifma::kBatchPad;
  const std::uint64_t* mu = mu52_.data() + ifma::kBatchPad;
  if (use_ifma_) {
    ifma::batch_sqr(a.data(), n, mu, d_, ws.pad.data(), ws.t.data(),
                    ws.q.data(), out.data());
  } else {
    for (std::size_t l = 0; l < kBatch; ++l) {
      for (std::size_t j = 0; j < d_; ++j) ws.la[j] = a[j * kBatch + l];
      r52::mont_sqr_g(ws.la.data(), n, mu, d_, ws.cols.data(), ws.lt.data(),
                      ws.lq.data(), ws.la.data());
      for (std::size_t j = 0; j < d_; ++j) out[j * kBatch + l] = ws.la[j];
    }
  }
}

BatchIfmaMontCtx::Rep BatchIfmaMontCtx::fixed_window_exp(
    const Rep& base, const bigint::BigInt& exp, int window) const {
  if (window <= 0) window = choose_window(exp.bit_length());
  return fixed_window_exp_rep(*this, base, exp, window);
}

std::array<bigint::BigInt, BatchIfmaMontCtx::kBatch>
BatchIfmaMontCtx::mod_exp(std::span<const bigint::BigInt> bases,
                          const bigint::BigInt& exp, int window) const {
  ExpWorkspace<BatchIfmaMontCtx> ws;
  std::array<bigint::BigInt, kBatch> out;
  mod_exp(bases, exp, out, ws, window);
  return out;
}

void BatchIfmaMontCtx::mod_exp(std::span<const bigint::BigInt> bases,
                               const bigint::BigInt& exp,
                               std::span<bigint::BigInt> out,
                               ExpWorkspace<BatchIfmaMontCtx>& ws,
                               int window) const {
  if (window <= 0) window = choose_window(exp.bit_length());
  to_mont(bases, ws.base_m, ws.kernel);
  fixed_window_exp_rep(*this, ws.base_m, exp, window, ws.res, ws);
  from_mont(ws.res, out, ws.kernel);
}

}  // namespace phissl::mont
