#include "rsa/batch_engine.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>

#include "mont/modexp.hpp"
#include "obs/trace.hpp"

namespace phissl::rsa {

using bigint::BigInt;

namespace {

// Per-thread intermediates (see CrtScratch in engine.cpp): all BigInts and
// workspaces retain capacity, so a warmed-up batched private_op allocates
// nothing. One instance per context type per thread — an engine on the
// ifma52 backend and one on knc_vec can interleave on the same thread
// without evicting each other's window tables.
template <typename Ctx>
struct BatchScratch {
  std::array<BigInt, BatchEngine::kBatch> xp, xq, m1, m2;
  BigInt quot, t, t2, h;
  mont::ExpWorkspace<Ctx> wsp, wsq;
};

template <typename Ctx>
BatchScratch<Ctx>& batch_scratch() {
  static thread_local BatchScratch<Ctx> s;
  return s;
}

}  // namespace

BatchEngine::AnyCtxPair BatchEngine::make_ctxs(const PrivateKey& key,
                                               Backend backend,
                                               unsigned digit_bits) {
  if (!has_batch_form(backend)) {
    throw std::invalid_argument(std::string("BatchEngine: ") +
                                to_string(backend) + " has no batched form");
  }
  if (backend == Backend::kKncVec) {
    return AnyCtxPair{CtxPair<mont::BatchVectorMontCtx>{
        mont::BatchVectorMontCtx(key.p, digit_bits),
        mont::BatchVectorMontCtx(key.q, digit_bits)}};
  }
  const bool portable = backend == Backend::kIfma52Portable;
  return AnyCtxPair{CtxPair<mont::BatchIfmaMontCtx>{
      mont::BatchIfmaMontCtx(key.p, portable),
      mont::BatchIfmaMontCtx(key.q, portable)}};
}

BatchEngine::BatchEngine(PrivateKey key, Backend backend, unsigned digit_bits)
    : key_(std::move(key)),
      backend_(backend),
      ctxs_(make_ctxs(key_, backend_, digit_bits)) {}

bool BatchEngine::uses_ifma() const {
  const auto* ifma = std::get_if<CtxPair<mont::BatchIfmaMontCtx>>(&ctxs_);
  return ifma != nullptr && ifma->p.uses_ifma();
}

std::array<BigInt, BatchEngine::kBatch> BatchEngine::private_op(
    std::span<const BigInt> xs) const {
  std::array<BigInt, kBatch> out;
  private_op(xs, out);
  return out;
}

void BatchEngine::private_op(std::span<const BigInt> xs,
                             std::span<BigInt> out) const {
  if (xs.size() != kBatch || out.size() != kBatch) {
    throw std::invalid_argument(
        "BatchEngine::private_op: need 16 inputs and 16 outputs");
  }
  PHISSL_OBS_SPAN("rsa.batch_private_op");
  std::visit(
      [&](const auto& cp) {
        using Ctx = std::decay_t<decltype(cp.p)>;
        BatchScratch<Ctx>& s = batch_scratch<Ctx>();
        {
          PHISSL_OBS_SPAN("rsa.crt_reduce");
          for (std::size_t l = 0; l < kBatch; ++l) {
            if (xs[l].is_negative() || xs[l] >= key_.pub.n) {
              throw std::invalid_argument(
                  "BatchEngine::private_op: inputs must be in [0, n)");
            }
            BigInt::divmod(xs[l], key_.p, s.quot, s.xp[l]);
            BigInt::divmod(xs[l], key_.q, s.quot, s.xq[l]);
          }
        }
        // Two batched half-size exponentiations (shared exponents dp, dq).
        {
          PHISSL_OBS_SPAN("rsa.mod_exp_p");
          cp.p.mod_exp(s.xp, key_.dp, s.m1, s.wsp);
        }
        {
          PHISSL_OBS_SPAN("rsa.mod_exp_q");
          cp.q.mod_exp(s.xq, key_.dq, s.m2, s.wsq);
        }
        // Garner recombination per lane (scalar; cheap next to the
        // modexps). Sign-tracked so the magnitude subtraction runs
        // largest-first in place (see Engine::private_op_crt_into).
        PHISSL_OBS_SPAN("rsa.crt_recombine");
        for (std::size_t l = 0; l < kBatch; ++l) {
          const bool diff_neg = s.m1[l] < s.m2[l];
          if (diff_neg) {
            s.t = s.m2[l];
            s.t -= s.m1[l];
          } else {
            s.t = s.m1[l];
            s.t -= s.m2[l];
          }
          BigInt::mul_to(key_.qinv, s.t, s.t2);
          BigInt::divmod(s.t2, key_.p, s.quot, s.h);
          if (diff_neg && !s.h.is_zero()) {
            s.t = key_.p;
            s.t -= s.h;
            s.h = s.t;
          }
          BigInt::mul_to(s.h, key_.q, out[l]);
          out[l] += s.m2[l];
        }
      },
      ctxs_);
}

}  // namespace phissl::rsa
