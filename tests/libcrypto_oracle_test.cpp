// Differential oracle against the host's libcrypto (built only when CMake
// finds OpenSSL): the dual-modulus CRT exponentiation against
// BN_mod_exp_mont_consttime_x2 — libcrypto's own two-halves-at-once
// exponentiation — with halves of 512, 1024 and 2048 bits, and the
// single-stream ifma52 fixed-window exponentiation against BN_mod_exp.
// Inputs: seeded random bases plus 0, 1 and m-1, against the exponents
// 1, 2, m-2 and a random one of the modulus size.
#include <gtest/gtest.h>

#include <openssl/bn.h>

#include <memory>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "util/random.hpp"

namespace phissl::mont {
namespace {

using bigint::BigInt;

struct BnFree {
  void operator()(BIGNUM* b) const { BN_free(b); }
};
struct BnCtxFree {
  void operator()(BN_CTX* c) const { BN_CTX_free(c); }
};
struct MontFree {
  void operator()(BN_MONT_CTX* m) const { BN_MONT_CTX_free(m); }
};
using Bn = std::unique_ptr<BIGNUM, BnFree>;

Bn to_bn(const BigInt& x) {
  const std::vector<std::uint8_t> be = x.to_bytes_be();
  return Bn(BN_bin2bn(be.data(), static_cast<int>(be.size()), nullptr));
}

BigInt from_bn(const BIGNUM* x) {
  std::vector<std::uint8_t> be(static_cast<std::size_t>(BN_num_bytes(x)));
  BN_bn2bin(x, be.data());
  return BigInt::from_bytes_be(be);
}

/// The bases and exponents the oracle compares for one modulus.
struct Inputs {
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
};

Inputs inputs_for(const BigInt& m, util::Rng& rng) {
  Inputs in;
  in.bases = {BigInt{}, BigInt{1}, m - BigInt{1}};
  for (int i = 0; i < 3; ++i) in.bases.push_back(BigInt::random_below(m, rng));
  in.exps = {BigInt{1}, BigInt{2}, m - BigInt{2},
             BigInt::random_bits(m.bit_length(), rng)};
  return in;
}

TEST(LibcryptoOracle, PairMatchesConsttimeX2) {
  const std::unique_ptr<BN_CTX, BnCtxFree> bn_ctx(BN_CTX_new());
  ASSERT_TRUE(bn_ctx);
  for (const std::size_t bits :
       {std::size_t{512}, std::size_t{1024}, std::size_t{2048}}) {
    util::Rng rng(0x0c1a + bits);
    const BigInt p = BigInt::random_odd_exact_bits(bits, rng);
    const BigInt q = BigInt::random_odd_exact_bits(bits, rng);
    const Inputs ip = inputs_for(p, rng);
    const Inputs iq = inputs_for(q, rng);
    const Bn bp = to_bn(p), bq = to_bn(q);
    const std::unique_ptr<BN_MONT_CTX, MontFree> mp(BN_MONT_CTX_new()),
        mq(BN_MONT_CTX_new());
    ASSERT_TRUE(BN_MONT_CTX_set(mp.get(), bp.get(), bn_ctx.get()) == 1 &&
                BN_MONT_CTX_set(mq.get(), bq.get(), bn_ctx.get()) == 1);
    const IfmaPairCtx pair(p, q);
    const IfmaPairCtx portable(p, q, /*force_portable=*/true);
    ExpWorkspace<IfmaPairCtx> ws;
    const Bn r1(BN_new()), r2(BN_new());
    for (std::size_t b = 0; b < ip.bases.size(); ++b) {
      for (std::size_t e = 0; e < ip.exps.size(); ++e) {
        const BigInt& xp = ip.bases[b];
        const BigInt& xq = iq.bases[b];
        const BigInt& ep = ip.exps[e];
        const BigInt& eq = iq.exps[e];
        ASSERT_EQ(BN_mod_exp_mont_consttime_x2(
                      r1.get(), to_bn(xp).get(), to_bn(ep).get(), bp.get(),
                      mp.get(), r2.get(), to_bn(xq).get(), to_bn(eq).get(),
                      bq.get(), mq.get(), bn_ctx.get()),
                  1);
        const BigInt want_p = from_bn(r1.get());
        const BigInt want_q = from_bn(r2.get());
        for (const IfmaPairCtx* ctx : {&pair, &portable}) {
          BigInt got_p, got_q;
          fixed_window_exp_pair(*ctx, xp, xq, ep, eq, got_p, got_q, ws);
          EXPECT_EQ(got_p, want_p) << bits << " base " << b << " exp " << e
                                   << " portable " << (ctx == &portable);
          EXPECT_EQ(got_q, want_q) << bits << " base " << b << " exp " << e
                                   << " portable " << (ctx == &portable);
        }
      }
    }
  }
}

TEST(LibcryptoOracle, Ifma52FixedWindowMatchesModExp) {
  const std::unique_ptr<BN_CTX, BnCtxFree> bn_ctx(BN_CTX_new());
  ASSERT_TRUE(bn_ctx);
  for (const std::size_t bits :
       {std::size_t{512}, std::size_t{1024}, std::size_t{2048}}) {
    util::Rng rng(0x0c1b + bits);
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const Inputs in = inputs_for(m, rng);
    const Bn bm = to_bn(m);
    const IfmaMontCtx ctx(m);
    ExpWorkspace<IfmaMontCtx> ws;
    const Bn r(BN_new());
    for (const BigInt& x : in.bases) {
      for (const BigInt& e : in.exps) {
        ASSERT_EQ(BN_mod_exp(r.get(), to_bn(x).get(), to_bn(e).get(), bm.get(),
                             bn_ctx.get()),
                  1);
        BigInt got;
        fixed_window_exp(ctx, x, e, got, ws);
        EXPECT_EQ(got, from_bn(r.get()))
            << bits << " x=" << x.to_hex() << " e=" << e.to_hex();
      }
    }
  }
}

}  // namespace
}  // namespace phissl::mont
