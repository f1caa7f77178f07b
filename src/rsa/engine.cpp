#include "rsa/engine.hpp"

#include <stdexcept>
#include <type_traits>

#include "mont/modexp.hpp"
#include "obs/trace.hpp"
#include "util/random.hpp"

namespace phissl::rsa {

using bigint::BigInt;

const char* to_string(Schedule s) {
  switch (s) {
    case Schedule::kFixedWindow:
      return "fixed-window";
    case Schedule::kSlidingWindow:
      return "sliding-window";
  }
  return "?";
}

BigInt Engine::mod_exp(const AnyCtx& ctx, const BigInt& base,
                       const BigInt& exp) const {
  BigInt out;
  mod_exp_into(ctx, base, exp, out);
  return out;
}

void Engine::mod_exp_into(const AnyCtx& ctx, const BigInt& base,
                          const BigInt& exp, BigInt& out) const {
  std::visit(
      [&](const auto& c) {
        // One workspace per kernel type per thread: the engine itself stays
        // immutable and shareable across threads (the documented
        // concurrency contract), while repeated ops on one thread reuse
        // the window table, accumulators and kernel scratch.
        using C = std::decay_t<decltype(c)>;
        static thread_local mont::ExpWorkspace<C> ws;
        if (opts_.schedule == Schedule::kFixedWindow) {
          mont::fixed_window_exp(c, base, exp, out, ws, opts_.window);
        } else {
          mont::sliding_window_exp(c, base, exp, out, ws, opts_.window);
        }
      },
      ctx);
}

Engine::Engine(PrivateKey key, EngineOptions opts)
    : pub_(key.pub), priv_(std::move(key)), opts_(opts) {
  ctx_n_ = std::make_unique<AnyCtx>(
      make_ctx(opts_.kernel, pub_.n, opts_.digit_bits));
  const bool ifma = opts_.kernel == Backend::kIfma52 ||
                    opts_.kernel == Backend::kIfma52Portable;
  if (opts_.use_crt && ifma && opts_.schedule == Schedule::kFixedWindow) {
    pair_ = std::make_unique<mont::IfmaPairCtx>(
        priv_->p, priv_->q, opts_.kernel == Backend::kIfma52Portable);
  } else if (opts_.use_crt) {
    ctx_p_ = std::make_unique<AnyCtx>(
        make_ctx(opts_.kernel, priv_->p, opts_.digit_bits));
    ctx_q_ = std::make_unique<AnyCtx>(
        make_ctx(opts_.kernel, priv_->q, opts_.digit_bits));
  }
}

Engine::Engine(PublicKey key, EngineOptions opts)
    : pub_(std::move(key)), opts_(opts) {
  ctx_n_ = std::make_unique<AnyCtx>(
      make_ctx(opts_.kernel, pub_.n, opts_.digit_bits));
}

const PrivateKey& Engine::priv() const {
  if (!priv_.has_value()) {
    throw std::logic_error("Engine::priv: public-only engine has no key");
  }
  return *priv_;
}

BigInt Engine::public_op(const BigInt& x) const {
  if (x.is_negative() || x >= pub_.n) {
    throw std::invalid_argument("Engine::public_op: x must be in [0, n)");
  }
  return mod_exp(*ctx_n_, x, pub_.e);
}

namespace {

// Per-thread intermediates for the CRT recombination. Every BigInt keeps
// its limb capacity across calls, so a warmed-up private_op_crt_into makes
// no heap allocation.
struct CrtScratch {
  BigInt quot;    // discarded quotients
  BigInt xp, xq;  // x mod p, x mod q
  BigInt m1, m2;  // half-size exponentiation results
  BigInt t, t2;   // |m1 - m2|, qinv * |m1 - m2|
  BigInt h;       // Garner coefficient
};

CrtScratch& crt_scratch() {
  static thread_local CrtScratch s;
  return s;
}

}  // namespace

BigInt Engine::private_op_crt(const BigInt& x) const {
  BigInt out;
  private_op_crt_into(x, out);
  return out;
}

void Engine::private_op_crt_into(const BigInt& x, BigInt& out) const {
  PHISSL_OBS_SPAN("rsa.private_op_crt");
  const PrivateKey& k = *priv_;
  CrtScratch& s = crt_scratch();
  // Half-size exponentiations mod p and q, then Garner recombination.
  {
    PHISSL_OBS_SPAN("rsa.crt_reduce");
    BigInt::divmod(x, k.p, s.quot, s.xp);
    BigInt::divmod(x, k.q, s.quot, s.xq);
  }
  if (pair_) {
    PHISSL_OBS_SPAN("rsa.mod_exp_pair");
    static thread_local mont::ExpWorkspace<mont::IfmaPairCtx> ws;
    mont::fixed_window_exp_pair(*pair_, s.xp, s.xq, k.dp, k.dq, s.m1, s.m2,
                                ws, opts_.window);
  } else {
    {
      PHISSL_OBS_SPAN("rsa.mod_exp_p");
      mod_exp_into(*ctx_p_, s.xp, k.dp, s.m1);
    }
    {
      PHISSL_OBS_SPAN("rsa.mod_exp_q");
      mod_exp_into(*ctx_q_, s.xq, k.dq, s.m2);
    }
  }
  PHISSL_OBS_SPAN("rsa.crt_recombine");
  // h = qinv * (m1 - m2) mod p. Track the sign of (m1 - m2) explicitly so
  // the magnitude subtraction always runs largest-first in place (the
  // other order would allocate a temporary inside operator-=).
  const bool diff_neg = s.m1 < s.m2;
  if (diff_neg) {
    s.t = s.m2;
    s.t -= s.m1;
  } else {
    s.t = s.m1;
    s.t -= s.m2;
  }
  BigInt::mul_to(k.qinv, s.t, s.t2);
  BigInt::divmod(s.t2, k.p, s.quot, s.h);
  if (diff_neg && !s.h.is_zero()) {
    // (m1 - m2) was negative: h = p - (qinv * |m1 - m2| mod p).
    s.t = k.p;
    s.t -= s.h;
    s.h = s.t;
  }
  // out = m2 + h * q.
  BigInt::mul_to(s.h, k.q, out);
  out += s.m2;
}

BigInt Engine::private_op(const BigInt& x, util::Rng* rng) const {
  if (!priv_) {
    throw std::logic_error("Engine::private_op: no private key");
  }
  if (x.is_negative() || x >= pub_.n) {
    throw std::invalid_argument("Engine::private_op: x must be in [0, n)");
  }
  if (!opts_.blinding) {
    return opts_.use_crt ? private_op_crt(x)
                         : mod_exp(*ctx_n_, x, priv_->d);
  }

  if (rng == nullptr) {
    throw std::invalid_argument(
        "Engine::private_op: blinding requires an Rng");
  }
  // Base blinding: work on x * r^e, unblind with r^-1. Draw r until it is
  // invertible mod n (always, unless r shares a factor with n).
  BigInt r, r_inv;
  for (;;) {
    r = BigInt::random_below(pub_.n - BigInt{2}, *rng) + BigInt{2};
    if (BigInt::gcd(r, pub_.n).is_one()) {
      r_inv = r.mod_inverse(pub_.n);
      break;
    }
  }
  const BigInt blinded = (x * public_op(r.mod(pub_.n))).mod(pub_.n);
  const BigInt result =
      opts_.use_crt ? private_op_crt(blinded) : mod_exp(*ctx_n_, blinded, priv_->d);
  return (result * r_inv).mod(pub_.n);
}

void Engine::private_op_into(const BigInt& x, BigInt& out,
                             util::Rng* rng) const {
  if (!priv_) {
    throw std::logic_error("Engine::private_op_into: no private key");
  }
  if (x.is_negative() || x >= pub_.n) {
    throw std::invalid_argument("Engine::private_op_into: x must be in [0, n)");
  }
  if (opts_.blinding) {
    out = private_op(x, rng);  // blinding draws fresh randomness; allocates
    return;
  }
  if (opts_.use_crt) {
    private_op_crt_into(x, out);
  } else {
    mod_exp_into(*ctx_n_, x, priv_->d, out);
  }
}

}  // namespace phissl::rsa
