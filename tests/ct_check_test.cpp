// Constant-time verification harness tests.
//
// Three layers, mirroring docs/STATIC_ANALYSIS.md:
//
//  1. Recorder/annotation plumbing: violation accounting, declassify
//     scopes, the poisoning API, backend identification.
//  2. Positive certification: the production Montgomery kernels and the
//     fixed-window schedule, re-instantiated with tainted words
//     (TaintCtx32), execute with ZERO secret-dependent branches or table
//     indices — over secret exponents, secret bases, and secret (CRT
//     prime) moduli — while still computing bit-identical results.
//  3. Negative controls: the checker must FIRE on code that leaks. The
//     deliberately-leaky fixtures (ct/leaky.hpp) and the variable-time
//     sliding-window schedule all get flagged, with the expected
//     violation kinds and counts.
//
// The poisoned-exponent drivers at the bottom run every production
// context (mont32/mont64/vector/batch) with ct::secret() on the exponent
// limbs: no-ops under the shadow backend, hard faults on any leak when
// the suite is rebuilt with -DPHISSL_CTCHECK=ON under MSan or valgrind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "ct/ct.hpp"
#include "ct/leaky.hpp"
#include "ct/secret_exp.hpp"
#include "ct/taint.hpp"
#include "ct/taint_mont.hpp"
#include "ct/taint_mont52.hpp"
#include "mont/batch.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "util/aes_generic.hpp"
#include "util/ct_bytes.hpp"
#include "util/random.hpp"

namespace phissl::ct {
namespace {

using bigint::BigInt;

class CtCheckTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_violations(); }
  void TearDown() override { clear_violations(); }
};

// ---- Layer 1: plumbing --------------------------------------------------

TEST(CtBackend, NameIsKnown) {
  const std::string name = backend_name();
  EXPECT_TRUE(name == "shadow" || name == "msan" || name == "valgrind")
      << name;
}

TEST(CtBackend, PoisonApiIsCallable) {
  // Under the shadow backend these are no-ops; under msan/valgrind the
  // poison/unpoison pair must still leave the buffer readable.
  std::vector<std::uint32_t> buf(8, 7u);
  secret_all(buf);
  declassify_all(buf);
  EXPECT_EQ(buf[3], 7u);
}

TEST_F(CtCheckTest, RecorderCountsAndDrains) {
  EXPECT_EQ(violation_count(), 0u);
  report_violation(ViolationKind::kBranch, "test-branch");
  report_violation(ViolationKind::kIndex, "test-index");
  report_violation(ViolationKind::kIndex, "test-index");
  EXPECT_EQ(violation_count(), 3u);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 1u);
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 2u);
  const auto log = take_violations();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].kind, ViolationKind::kBranch);
  EXPECT_STREQ(log[0].site, "test-branch");
  EXPECT_EQ(violation_count(), 0u);  // drained
}

TEST_F(CtCheckTest, DeclassifyScopeSuppressesRecording) {
  {
    DeclassifyScope scope;
    EXPECT_TRUE(declassified());
    report_violation(ViolationKind::kBranch, "blinded");
    {
      DeclassifyScope nested;
      report_violation(ViolationKind::kIndex, "blinded");
    }
    EXPECT_TRUE(declassified());  // outer scope still active
  }
  EXPECT_FALSE(declassified());
  EXPECT_EQ(violation_count(), 0u);
  report_violation(ViolationKind::kBranch, "live");
  EXPECT_EQ(violation_count(), 1u);
}

TEST_F(CtCheckTest, TaintPropagatesThroughArithmetic) {
  const TW32 s(5u, true);
  const TW32 p(7u, false);
  EXPECT_EQ((s + p).v, 12u);
  EXPECT_TRUE((s + p).secret);
  EXPECT_TRUE((p - s).secret);
  EXPECT_FALSE((p * p).secret);
  EXPECT_TRUE((s ^ 3u).secret);   // mixed with a plain integral
  EXPECT_TRUE((1u + s).secret);
  EXPECT_TRUE((s << 2).secret);
  EXPECT_TRUE(w64(s).secret);
  EXPECT_TRUE(lo32(TW64(1u, true)).secret);
  // is_nonzero is a value computation (setcc, not a jump): legal on
  // secrets, result stays tainted.
  EXPECT_EQ(is_nonzero(s).v, 1u);
  EXPECT_TRUE(is_nonzero(s).secret);
  EXPECT_EQ(is_nonzero(TW32(0u, true)).v, 0u);
  EXPECT_EQ(violation_count(), 0u);  // arithmetic alone never records
}

TEST_F(CtCheckTest, TaintedBoolBranchRecords) {
  const TBool sb(true, true);
  if (sb) {  // contextual conversion of a secret bool = the leak
  }
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 1u);
  const TBool pb(true, false);
  if (pb) {  // public bool: fine
  }
  EXPECT_EQ(violation_count(), 1u);
  if (!sb) {  // negation keeps the taint
  }
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 2u);
}

TEST_F(CtCheckTest, TaintedIndexRecords) {
  EXPECT_EQ(index_value(TW32(3u, false)), 3u);
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_EQ(index_value(TW32(3u, true)), 3u);  // record-and-continue
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 1u);
}

TEST_F(CtCheckTest, TaintPropagatesThroughWideHooks) {
  // The 64/128-bit word family the radix-52 kernels instantiate with.
  const TW64 s(5u, true);
  const TW64 p(7u, false);
  EXPECT_TRUE(w128(s).secret);
  EXPECT_FALSE(w128(p).secret);
  EXPECT_TRUE(lo64(wmul128(s, p)).secret);
  EXPECT_FALSE(wmul128(p, p).secret);
  EXPECT_EQ(lo64(wmul128(s, p)).v, 35u);
  EXPECT_EQ(is_nonzero64(s).v, 1u);
  EXPECT_TRUE(is_nonzero64(s).secret);
  EXPECT_EQ(is_nonzero64(TW64(0u, true)).v, 0u);
  // 128-bit arithmetic joins secrecy like every other width.
  EXPECT_TRUE((w128(s) + w128(p)).secret);
  EXPECT_TRUE(((w128(s) << 52) & 7u).secret);
  // Width casts keep the mark (ct_table_select widens the window index).
  EXPECT_TRUE(TW64(TW32(3u, true)).secret);
  EXPECT_FALSE(TW64(TW32(3u, false)).secret);
  EXPECT_EQ(violation_count(), 0u);  // arithmetic alone never records
}

// ---- Layer 2: positive certification ------------------------------------

TEST_F(CtCheckTest, TaintedKernelsMatchNativeMulSqr) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx32 tctx(m);
  util::Rng rng(42);
  TaintCtx32::Rep out;
  TaintCtx32::Workspace ws;
  for (int i = 0; i < 8; ++i) {
    const BigInt a = BigInt::random_below(m, rng);
    const BigInt b = BigInt::random_below(m, rng);
    const TaintCtx32::Rep ta = tctx.to_mont(a, /*secret_value=*/true);
    const TaintCtx32::Rep tb = tctx.to_mont(b, /*secret_value=*/true);
    tctx.mul(ta, tb, out, ws);
    EXPECT_EQ(tctx.from_mont_clear(out), (a * b).mod(m));
    tctx.sqr(ta, out, ws);
    EXPECT_EQ(tctx.from_mont_clear(out), (a * a).mod(m));
  }
  // CIOS, the squaring kernel, REDC and the conditional subtract ran on
  // fully secret operands without a single secret-dependent branch/index.
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, FixedWindowModexpIsConstantTime) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx32 tctx(m);
  util::Rng rng(7);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx32::Rep base_m = tctx.to_mont(base, /*secret_value=*/true);
  TaintCtx32::Rep out;
  mont::ExpWorkspace<TaintCtx32> ws;
  for (const int window : {1, 3, 4, 5}) {
    mont::fixed_window_exp_rep(tctx, base_m, SecretExp(key.d), window, out,
                               ws);
    EXPECT_EQ(violation_count(), 0u)
        << "secret-dependent branch/index in fixed-window schedule, w="
        << window;
    EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
  }
}

TEST_F(CtCheckTest, FixedWindowWithSecretPrimeModulus) {
  // CRT half: modulus (prime p), n0, every residue AND the exponent dp
  // are all private key material.
  const rsa::PrivateKey& key = rsa::test_key(256);
  TaintCtx32 tctx(key.p, /*secret_modulus=*/true);
  util::Rng rng(8);
  const BigInt base = BigInt::random_below(key.p, rng);
  const TaintCtx32::Rep base_m = tctx.to_mont(base, /*secret_value=*/true);
  TaintCtx32::Rep out;
  mont::ExpWorkspace<TaintCtx32> ws;
  mont::fixed_window_exp_rep(tctx, base_m, SecretExp(key.dp), 4, out, ws);
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.dp, key.p));
}

TEST_F(CtCheckTest, CrtPrivateOpUnderTaint) {
  // Full CRT private operation replayed under taint: both half-size
  // exponentiations run strictly checked over secret primes/exponents;
  // the BigInt reduction and Garner recombination are declassified per
  // the blinding policy (they run on blinded values in production —
  // docs/STATIC_ANALYSIS.md, "Declassification policy").
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& n = key.pub.n;
  util::Rng rng(9);
  const BigInt x = BigInt::random_below(n, rng);

  TaintCtx32 ctx_p(key.p, /*secret_modulus=*/true);
  TaintCtx32 ctx_q(key.q, /*secret_modulus=*/true);

  BigInt xp, xq, quot;
  {
    DeclassifyScope blinded;
    BigInt::divmod(x, key.p, quot, xp);
    BigInt::divmod(x, key.q, quot, xq);
  }

  TaintCtx32::Rep m1r, m2r;
  mont::ExpWorkspace<TaintCtx32> wsp, wsq;
  mont::fixed_window_exp_rep(ctx_p, ctx_p.to_mont(xp, true),
                             SecretExp(key.dp), 4, m1r, wsp);
  mont::fixed_window_exp_rep(ctx_q, ctx_q.to_mont(xq, true),
                             SecretExp(key.dq), 4, m2r, wsq);
  EXPECT_EQ(violation_count(), 0u)
      << "leak in a strictly-checked CRT exponentiation half";

  BigInt out;
  {
    DeclassifyScope blinded;
    const BigInt m1 = ctx_p.from_mont_clear(m1r);
    const BigInt m2 = ctx_q.from_mont_clear(m2r);
    // Garner recombination, mirroring Engine::private_op_crt_into.
    BigInt t;
    const bool diff_neg = m1 < m2;
    if (diff_neg) {
      t = m2;
      t -= m1;
    } else {
      t = m1;
      t -= m2;
    }
    BigInt h = (key.qinv * t).mod(key.p);
    if (diff_neg && !h.is_zero()) {
      t = key.p;
      t -= h;
      h = t;
    }
    out = h * key.q;
    out += m2;
  }
  EXPECT_EQ(out, x.mod_pow(key.d, n));
  EXPECT_EQ(violation_count(), 0u);
}

// ---- Layer 2b: the radix-52 kernels --------------------------------------
// TaintCtx52: the truncated REDC of BatchIfmaMontCtx's lane kernels.
// TaintAmmCtx52 / TaintPairCtx52: the almost-Montgomery product of the
// latency contexts IfmaMontCtx (one half) and IfmaPairCtx (two halves).

TEST_F(CtCheckTest, TaintedRadix52KernelsMatchNativeMulSqr) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx52 tctx(m);
  util::Rng rng(19);
  TaintCtx52::Rep out;
  TaintCtx52::Workspace ws;
  for (int i = 0; i < 8; ++i) {
    const BigInt a = BigInt::random_below(m, rng);
    const BigInt b = BigInt::random_below(m, rng);
    const TaintCtx52::Rep ta = tctx.to_mont(a, /*secret_value=*/true);
    const TaintCtx52::Rep tb = tctx.to_mont(b, /*secret_value=*/true);
    tctx.mul(ta, tb, out, ws);
    EXPECT_EQ(tctx.from_mont_clear(out), (a * b).mod(m));
    tctx.sqr(ta, out, ws);
    EXPECT_EQ(tctx.from_mont_clear(out), (a * a).mod(m));
  }
  // The column products, the truncated REDC (including the ceiling-trick
  // carry recovery, whose is_nonzero64 is a value computation) and the
  // masked conditional subtract ran on fully secret operands without a
  // single secret-dependent branch or index.
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, FixedWindowModexpIsConstantTimeRadix52) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx52 tctx(m);
  util::Rng rng(20);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx52::Rep base_m = tctx.to_mont(base, /*secret_value=*/true);
  TaintCtx52::Rep out;
  mont::ExpWorkspace<TaintCtx52> ws;
  for (const int window : {1, 3, 4, 5}) {
    mont::fixed_window_exp_rep(tctx, base_m, SecretExp(key.d), window, out,
                               ws);
    EXPECT_EQ(violation_count(), 0u)
        << "secret-dependent branch/index in fixed-window schedule over "
           "radix-52, w="
        << window;
    EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
  }
}

TEST_F(CtCheckTest, Radix52CrtPrivateOpUnderTaint) {
  // Both CRT exponentiation halves over secret prime moduli (modulus, mu,
  // residues and exponents all tainted) on the truncated REDC, mirroring
  // the per-prime arithmetic of an ifma52 BatchEngine batch;
  // recombination declassified per the blinding policy, exactly like the
  // 32-bit CRT test above.
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& n = key.pub.n;
  util::Rng rng(21);
  const BigInt x = BigInt::random_below(n, rng);

  TaintCtx52 ctx_p(key.p, /*secret_modulus=*/true);
  TaintCtx52 ctx_q(key.q, /*secret_modulus=*/true);

  BigInt xp, xq, quot;
  {
    DeclassifyScope blinded;
    BigInt::divmod(x, key.p, quot, xp);
    BigInt::divmod(x, key.q, quot, xq);
  }

  TaintCtx52::Rep m1r, m2r;
  mont::ExpWorkspace<TaintCtx52> wsp, wsq;
  mont::fixed_window_exp_rep(ctx_p, ctx_p.to_mont(xp, true),
                             SecretExp(key.dp), 4, m1r, wsp);
  mont::fixed_window_exp_rep(ctx_q, ctx_q.to_mont(xq, true),
                             SecretExp(key.dq), 4, m2r, wsq);
  EXPECT_EQ(violation_count(), 0u)
      << "leak in a strictly-checked radix-52 CRT exponentiation half";

  BigInt out;
  {
    DeclassifyScope blinded;
    const BigInt m1 = ctx_p.from_mont_clear(m1r);
    const BigInt m2 = ctx_q.from_mont_clear(m2r);
    BigInt t;
    const bool diff_neg = m1 < m2;
    if (diff_neg) {
      t = m2;
      t -= m1;
    } else {
      t = m1;
      t -= m2;
    }
    BigInt h = (key.qinv * t).mod(key.p);
    if (diff_neg && !h.is_zero()) {
      t = key.p;
      t -= h;
      h = t;
    }
    out = h * key.q;
    out += m2;
  }
  EXPECT_EQ(out, x.mod_pow(key.d, n));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, Radix52PairCrtPrivateOpUnderTaint) {
  // What rsa::Engine runs for the ifma52 backends: both CRT halves in one
  // dual-modulus schedule (fixed_window_exp_pair_rep) over secret prime
  // moduli, with secret residues and secret exponents, every product the
  // generic almost-Montgomery kernel and every window's two gathers one
  // ct_table_select_split scan.
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& n = key.pub.n;
  util::Rng rng(26);
  const BigInt x = BigInt::random_below(n, rng);

  const TaintPairCtx52 ctx(key.p, key.q, /*secret_modulus=*/true);
  BigInt xp, xq, quot;
  {
    DeclassifyScope blinded;
    BigInt::divmod(x, key.p, quot, xp);
    BigInt::divmod(x, key.q, quot, xq);
  }
  TaintPairCtx52::Rep res;
  mont::ExpWorkspace<TaintPairCtx52> ws;
  for (const int window : {1, 4, 5}) {
    mont::fixed_window_exp_pair_rep(ctx, ctx.to_mont(xp, xq, true),
                                    SecretExp(key.dp), SecretExp(key.dq),
                                    window, res, ws);
    EXPECT_EQ(violation_count(), 0u)
        << "leak in the radix-52 dual-modulus CRT schedule, w=" << window;
    BigInt m1, m2;
    {
      DeclassifyScope blinded;
      ctx.from_mont_clear(res, m1, m2);
    }
    EXPECT_EQ(m1, xp.mod_pow(key.dp, key.p)) << window;
    EXPECT_EQ(m2, xq.mod_pow(key.dq, key.q)) << window;
  }
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, Radix52OneHalfExpUnderTaint) {
  // What the ifma52 backends run for one modulus (Dh, the public op,
  // non-CRT private ops): the one-half almost-Montgomery product under the
  // unmodified fixed-window schedule, here over a secret prime modulus
  // with a secret base and a secret exponent. The residue words must equal
  // IfmaMontCtx's (the dispatched kernel) after every exponentiation.
  const rsa::PrivateKey& key = rsa::test_key(512);
  util::Rng rng(29);
  const BigInt base = BigInt::random_below(key.p, rng);
  const TaintAmmCtx52 tctx(key.p, /*secret_modulus=*/true);
  const mont::IfmaMontCtx native(key.p);
  TaintAmmCtx52::Rep res;
  mont::ExpWorkspace<TaintAmmCtx52> ws;
  mont::IfmaMontCtx::Rep want;
  mont::ExpWorkspace<mont::IfmaMontCtx> native_ws;
  for (const int window : {1, 4, 5}) {
    mont::fixed_window_exp_rep(tctx, tctx.to_mont(base, true),
                               SecretExp(key.dp), window, res, ws);
    EXPECT_EQ(violation_count(), 0u)
        << "leak in the radix-52 one-half schedule, w=" << window;
    mont::fixed_window_exp_rep(native, native.to_mont(base), key.dp, window,
                               want, native_ws);
    ASSERT_EQ(res.size(), native.digits());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(j < res.size() ? res[j].v : 0, want[j]) << window << " " << j;
    }
    BigInt got;
    {
      DeclassifyScope blinded;
      got = tctx.from_mont_clear(res);
    }
    EXPECT_EQ(got, base.mod_pow(key.dp, key.p)) << window;
  }
  EXPECT_EQ(violation_count(), 0u);
}

// ---- Layer 3: negative controls -----------------------------------------

TEST_F(CtCheckTest, SlidingWindowIsFlaggedVariableTime) {
  // The sliding-window schedule branches on exponent bits by design
  // (that's why production private ops use fixed windows). The checker
  // must see that — and record-and-continue must keep the result right.
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx32 tctx(m);
  util::Rng rng(10);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx32::Rep base_m = tctx.to_mont(base, true);
  TaintCtx32::Rep out;
  mont::ExpWorkspace<TaintCtx32> ws;
  mont::sliding_window_exp_rep(tctx, base_m, SecretExp(key.d), 4, out, ws);
  EXPECT_GT(violation_count(ViolationKind::kBranch), 0u);
  EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
}

TEST_F(CtCheckTest, LeakySquareAndMultiplyIsDetected) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx32 tctx(m);
  util::Rng rng(11);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx32::Rep base_m = tctx.to_mont(base, true);
  TaintCtx32::Rep out;
  mont::ExpWorkspace<TaintCtx32> ws;
  leaky_square_and_multiply(tctx, base_m, SecretExp(key.d), out, ws);
  // One kBranch per examined bit: the branch is evaluated whether or not
  // it is taken.
  EXPECT_EQ(violation_count(ViolationKind::kBranch), key.d.bit_length());
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 0u);
  EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
}

TEST_F(CtCheckTest, LeakyFixedWindowIsDetected) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx32 tctx(m);
  util::Rng rng(12);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx32::Rep base_m = tctx.to_mont(base, true);
  TaintCtx32::Rep out;
  mont::ExpWorkspace<TaintCtx32> ws;
  const std::size_t w = 4;
  const std::size_t nwin = (key.d.bit_length() + w - 1) / w;
  leaky_fixed_window(tctx, base_m, SecretExp(key.d), static_cast<int>(w),
                     out, ws);
  // One kIndex per window: same schedule as the hardened version, but a
  // direct table[index] load instead of the masked gather.
  EXPECT_EQ(violation_count(ViolationKind::kIndex), nwin);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 0u);
  EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
}

TEST_F(CtCheckTest, SlidingWindowIsFlaggedVariableTimeRadix52) {
  // Same negative control over the radix-52 context: a checker extension
  // that certified the new kernels but could no longer see the schedule's
  // bit-branches would be worthless.
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx52 tctx(m);
  util::Rng rng(22);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx52::Rep base_m = tctx.to_mont(base, true);
  TaintCtx52::Rep out;
  mont::ExpWorkspace<TaintCtx52> ws;
  mont::sliding_window_exp_rep(tctx, base_m, SecretExp(key.d), 4, out, ws);
  EXPECT_GT(violation_count(ViolationKind::kBranch), 0u);
  EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
}

TEST_F(CtCheckTest, LeakyFixedWindowIsDetectedRadix52) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  TaintCtx52 tctx(m);
  util::Rng rng(23);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx52::Rep base_m = tctx.to_mont(base, true);
  TaintCtx52::Rep out;
  mont::ExpWorkspace<TaintCtx52> ws;
  const std::size_t w = 4;
  const std::size_t nwin = (key.d.bit_length() + w - 1) / w;
  leaky_fixed_window(tctx, base_m, SecretExp(key.d), static_cast<int>(w),
                     out, ws);
  EXPECT_EQ(violation_count(ViolationKind::kIndex), nwin);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 0u);
  EXPECT_EQ(tctx.from_mont_clear(out), base.mod_pow(key.d, m));
}

TEST_F(CtCheckTest, DeclassifyScopeSuppressesKernelViolations) {
  const rsa::PrivateKey& key = rsa::test_key(128);
  const BigInt& m = key.pub.n;
  TaintCtx32 tctx(m);
  util::Rng rng(13);
  const BigInt base = BigInt::random_below(m, rng);
  const TaintCtx32::Rep base_m = tctx.to_mont(base, true);
  TaintCtx32::Rep out;
  mont::ExpWorkspace<TaintCtx32> ws;
  DeclassifyScope blinded;
  leaky_square_and_multiply(tctx, base_m, SecretExp(key.d), out, ws);
  EXPECT_EQ(violation_count(), 0u);
}

// ---- Dynamic-backend drivers (all four production contexts) -------------

// Poisons a BigInt's limb storage in place. Marking bytes secret is not a
// write, so casting away const here is sound; the harness unpoisons
// before anything reads the value on a non-poisoning backend's behalf.
void poison_bigint(const BigInt& x) {
  const auto limbs = x.limbs();
  if (!limbs.empty()) {
    secret(const_cast<std::uint32_t*>(limbs.data()),
           limbs.size() * sizeof(std::uint32_t));
  }
}

void unpoison_bigint(const BigInt& x) {
  const auto limbs = x.limbs();
  if (!limbs.empty()) {
    declassify(const_cast<std::uint32_t*>(limbs.data()),
               limbs.size() * sizeof(std::uint32_t));
  }
}

// Runs ctx's fixed-window modexp with the exponent limbs poisoned and the
// schedule length padded to the modulus size (PaddedExp: the loop trip
// count never reads secret bytes). Shadow backend: a correctness smoke.
// MSan/valgrind (PHISSL_CTCHECK builds): faults on any secret-dependent
// branch or index inside the context's kernels.
template <typename Ctx>
void run_poisoned_padded(const Ctx& ctx, const BigInt& base, const BigInt& exp,
                         const BigInt& expected) {
  const BigInt e = exp;  // private copy whose storage we poison
  mont::ExpWorkspace<Ctx> ws;
  typename Ctx::Rep out;
  poison_bigint(e);
  mont::fixed_window_exp_rep(ctx, ctx.to_mont(base),
                             PaddedExp(e, ctx.modulus().bit_length()), 4, out,
                             ws);
  unpoison_bigint(e);
  declassify_all(out);  // result is secret-derived; declassify to compare
  EXPECT_EQ(ctx.from_mont(out), expected);
}

TEST_F(CtCheckTest, PoisonedExponentDriverScalar32) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  util::Rng rng(14);
  const BigInt base = BigInt::random_below(key.pub.n, rng);
  run_poisoned_padded(mont::MontCtx32(key.pub.n), base, key.d,
                      base.mod_pow(key.d, key.pub.n));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedExponentDriverScalar64) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  util::Rng rng(15);
  const BigInt base = BigInt::random_below(key.pub.n, rng);
  run_poisoned_padded(mont::MontCtx64(key.pub.n), base, key.d,
                      base.mod_pow(key.d, key.pub.n));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedExponentDriverVector) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  util::Rng rng(16);
  const BigInt base = BigInt::random_below(key.pub.n, rng);
  run_poisoned_padded(mont::VectorMontCtx(key.pub.n), base, key.d,
                      base.mod_pow(key.d, key.pub.n));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedExponentDriverBatch) {
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& m = key.pub.n;
  util::Rng rng(17);
  const mont::BatchVectorMontCtx ctx(m);
  std::array<BigInt, mont::BatchVectorMontCtx::kBatch> bases;
  for (auto& b : bases) b = BigInt::random_below(m, rng);
  const BigInt e = key.d;
  mont::ExpWorkspace<mont::BatchVectorMontCtx> ws;
  mont::BatchVectorMontCtx::Rep out;
  poison_bigint(e);
  mont::fixed_window_exp_rep(ctx, ctx.to_mont(bases),
                             PaddedExp(e, m.bit_length()), 4, out, ws);
  unpoison_bigint(e);
  declassify_all(out);
  const auto results = ctx.from_mont(out);
  for (std::size_t lane = 0; lane < results.size(); ++lane) {
    EXPECT_EQ(results[lane], bases[lane].mod_pow(key.d, m)) << lane;
  }
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedExponentDriverIfma52) {
  // Whichever kernel the host dispatches (vpmadd52 or portable u128) runs
  // the poisoned fixed-window schedule.
  const rsa::PrivateKey& key = rsa::test_key(256);
  util::Rng rng(24);
  const BigInt base = BigInt::random_below(key.pub.n, rng);
  run_poisoned_padded(mont::IfmaMontCtx(key.pub.n), base, key.d,
                      base.mod_pow(key.d, key.pub.n));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedExponentDriverIfma52Portable) {
  // Pinned portable path: the amm_g instantiation TaintAmmCtx52 replays,
  // so the sanitizer backends exercise the exact generic-kernel code the
  // shadow checker certifies.
  const rsa::PrivateKey& key = rsa::test_key(256);
  util::Rng rng(25);
  const BigInt base = BigInt::random_below(key.pub.n, rng);
  run_poisoned_padded(mont::IfmaMontCtx(key.pub.n, /*force_portable=*/true),
                      base, key.d, base.mod_pow(key.d, key.pub.n));
  EXPECT_EQ(violation_count(), 0u);
}

// The dual-modulus CRT schedule on the production pair context with both
// exponents' limbs poisoned and both schedules padded to their primes'
// sizes.
void run_poisoned_pair(const mont::IfmaPairCtx& ctx, const rsa::PrivateKey& key,
                       const BigInt& x) {
  BigInt xp, xq, quot;
  BigInt::divmod(x, key.p, quot, xp);
  BigInt::divmod(x, key.q, quot, xq);
  const BigInt dp = key.dp;  // private copies whose storage we poison
  const BigInt dq = key.dq;
  mont::ExpWorkspace<mont::IfmaPairCtx> ws;
  mont::IfmaPairCtx::Rep base, out;
  ctx.to_mont(xp, xq, base, ws.kernel);
  poison_bigint(dp);
  poison_bigint(dq);
  mont::fixed_window_exp_pair_rep(ctx, base, PaddedExp(dp, key.p.bit_length()),
                                  PaddedExp(dq, key.q.bit_length()), 5, out,
                                  ws);
  unpoison_bigint(dp);
  unpoison_bigint(dq);
  declassify_all(out);
  BigInt m1, m2;
  ctx.from_mont(out, m1, m2, ws.kernel);
  EXPECT_EQ(m1, xp.mod_pow(key.dp, key.p));
  EXPECT_EQ(m2, xq.mod_pow(key.dq, key.q));
}

TEST_F(CtCheckTest, PoisonedExponentPairDriverIfma52) {
  // Whichever pair kernel the host dispatches (vpmadd52 or portable).
  const rsa::PrivateKey& key = rsa::test_key(512);
  util::Rng rng(27);
  run_poisoned_pair(mont::IfmaPairCtx(key.p, key.q), key,
                    BigInt::random_below(key.pub.n, rng));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedExponentPairDriverIfma52Portable) {
  // Pinned portable pair path: the amm_g instantiation TaintPairCtx52
  // replays.
  const rsa::PrivateKey& key = rsa::test_key(512);
  util::Rng rng(28);
  run_poisoned_pair(mont::IfmaPairCtx(key.p, key.q, /*force_portable=*/true),
                    key, BigInt::random_below(key.pub.n, rng));
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, PoisonedCrtDriver) {
  // CRT with poisoned private material: the reduction/recombination
  // halves run on declassified (policy: blinded) values; the two modexp
  // halves run with dp/dq poisoned.
  const rsa::PrivateKey& key = rsa::test_key(256);
  const BigInt& n = key.pub.n;
  util::Rng rng(18);
  const BigInt x = BigInt::random_below(n, rng);

  BigInt xp, xq, quot;
  BigInt::divmod(x, key.p, quot, xp);
  BigInt::divmod(x, key.q, quot, xq);

  const mont::MontCtx32 ctx_p(key.p);
  const mont::MontCtx64 ctx_q(key.q);
  mont::ExpWorkspace<mont::MontCtx32> wsp;
  mont::ExpWorkspace<mont::MontCtx64> wsq;
  mont::MontCtx32::Rep m1r;
  mont::MontCtx64::Rep m2r;
  poison_bigint(key.dp);
  poison_bigint(key.dq);
  mont::fixed_window_exp_rep(ctx_p, ctx_p.to_mont(xp),
                             PaddedExp(key.dp, key.p.bit_length()), 4, m1r,
                             wsp);
  mont::fixed_window_exp_rep(ctx_q, ctx_q.to_mont(xq),
                             PaddedExp(key.dq, key.q.bit_length()), 4, m2r,
                             wsq);
  unpoison_bigint(key.dp);
  unpoison_bigint(key.dq);
  declassify_all(m1r);
  declassify_all(m2r);

  const BigInt m1 = ctx_p.from_mont(m1r);
  const BigInt m2 = ctx_q.from_mont(m2r);
  BigInt t;
  const bool diff_neg = m1 < m2;
  if (diff_neg) {
    t = m2;
    t -= m1;
  } else {
    t = m1;
    t -= m2;
  }
  BigInt h = (key.qinv * t).mod(key.p);
  if (diff_neg && !h.is_zero()) {
    t = key.p;
    t -= h;
    h = t;
  }
  BigInt out = h * key.q;
  out += m2;
  EXPECT_EQ(out, x.mod_pow(key.d, n));
  EXPECT_EQ(violation_count(), 0u);
}

// ---- Record-layer / key-transport certification -------------------------
//
// The byte-scanning kernels in util/ct_bytes.hpp run over DECRYPTED
// attacker-influenced bytes (CBC padding, record MAC, PKCS#1 premaster
// block). Replaying the same templates with tainted words certifies them
// branch- and index-free; the early-exit shapes they replaced (leaky.hpp)
// are the negative controls with pinned violation kinds and counts.

namespace ctb = util::ctb;

// Word-widens bytes into secret TW32 words.
std::vector<TW32> taint_bytes(std::span<const std::uint8_t> bytes) {
  std::vector<TW32> out;
  out.reserve(bytes.size());
  for (const std::uint8_t b : bytes) out.emplace_back(b, /*secret=*/true);
  return out;
}

TEST_F(CtCheckTest, CbcPadCheckIsConstantTime) {
  // Valid pads 1..16, a zero pad byte, an oversize pad byte, and a pad
  // whose interior bytes mismatch — the tainted replay must record
  // nothing on any of them and agree bit-for-bit with the native kernel.
  std::vector<std::array<std::uint8_t, 16>> cases;
  for (std::uint8_t pad = 1; pad <= 16; ++pad) {
    std::array<std::uint8_t, 16> t{};
    for (std::size_t i = 0; i < 16; ++i) {
      t[i] = (i >= 16u - pad) ? pad : static_cast<std::uint8_t>(i + 1);
    }
    cases.push_back(t);
  }
  std::array<std::uint8_t, 16> zero{};
  cases.push_back(zero);  // pad byte 0: out of range
  std::array<std::uint8_t, 16> big{};
  big.fill(0xee);  // pad byte 238: out of range
  cases.push_back(big);
  std::array<std::uint8_t, 16> mism{};
  mism.fill(4);
  mism[13] = 9;  // inside the claimed pad, wrong value
  cases.push_back(mism);

  for (const auto& t : cases) {
    std::uint32_t native[16];
    for (std::size_t i = 0; i < 16; ++i) native[i] = t[i];
    const auto want = ctb::cbc_pad_check(native, 16);

    const auto tw = taint_bytes(t);
    const auto got = ctb::cbc_pad_check(tw.data(), 16);
    EXPECT_EQ(violation_count(), 0u) << "pad byte " << int(t[15]);
    EXPECT_EQ(peek32(got.valid_mask), want.valid_mask);
    EXPECT_EQ(peek32(got.strip), want.strip);
    // Secrecy must survive to the outputs: a result that lost its mark
    // would let downstream code branch on it unnoticed.
    EXPECT_TRUE(got.valid_mask.secret);
  }
}

TEST_F(CtCheckTest, MacCompareIsConstantTime) {
  std::array<std::uint8_t, 32> a{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(31 * i + 7);
  }
  auto b = a;
  const auto ta = taint_bytes(a);
  auto tb = taint_bytes(b);
  EXPECT_EQ(peek32(ctb::ct_eq_mask(ta.data(), tb.data(), 32)), ~0u);
  tb[17] = TW32(tb[17].v ^ 0x40u, true);
  EXPECT_EQ(peek32(ctb::ct_eq_mask(ta.data(), tb.data(), 32)), 0u);
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CtCheckTest, Pkcs1UnpadScanIsConstantTime) {
  // One well-formed block and the three rejection classes: bad header,
  // short PS, missing separator. Zero violations on all of them, native
  // agreement on all of them.
  auto block = [](std::initializer_list<int> prefix, std::size_t len) {
    std::vector<std::uint8_t> em(len, 0xaa);
    std::size_t i = 0;
    for (const int b : prefix) em[i++] = static_cast<std::uint8_t>(b);
    return em;
  };
  std::vector<std::vector<std::uint8_t>> cases;
  {
    std::vector<std::uint8_t> ok = block({0x00, 0x02}, 32);
    ok[12] = 0x00;  // separator after a 10-byte PS
    cases.push_back(ok);
  }
  cases.push_back(block({0x01, 0x02}, 32));  // first byte wrong
  cases.push_back(block({0x00, 0x01}, 32));  // second byte wrong
  {
    std::vector<std::uint8_t> shortps = block({0x00, 0x02}, 32);
    shortps[6] = 0x00;  // separator too early: PS only 4 bytes
    cases.push_back(shortps);
  }
  cases.push_back(block({0x00, 0x02}, 32));  // no separator at all

  for (const auto& em : cases) {
    std::vector<std::uint32_t> native(em.begin(), em.end());
    const auto want = ctb::pkcs1_unpad_scan(native.data(), native.size());

    const auto tw = taint_bytes(em);
    const auto got = ctb::pkcs1_unpad_scan(tw.data(), tw.size());
    EXPECT_EQ(violation_count(), 0u);
    EXPECT_EQ(peek32(got.ok_mask), want.ok_mask);
    EXPECT_EQ(peek32(got.msg_start), want.msg_start);
    EXPECT_TRUE(got.ok_mask.secret);
  }
}

TEST_F(CtCheckTest, Pkcs1UnpadScanMatchesProductionUnpad) {
  // The scan kernel IS production (rsaes_pkcs1_v15_unpad runs it); this
  // faithfulness check pins the agreement between the kernel's mask
  // outputs and the public API's accept/reject + message slicing across
  // randomized blocks.
  util::Rng rng(0xec5u);
  for (int it = 0; it < 200; ++it) {
    std::vector<std::uint8_t> em(11 + rng.next_u32() % 117);
    for (auto& b : em) b = static_cast<std::uint8_t>(rng.next_u32());
    if (it % 3 == 0) {  // force the well-formed shape sometimes
      em[0] = 0x00;
      em[1] = 0x02;
      for (std::size_t i = 2; i < em.size(); ++i) {
        if (em[i] == 0) em[i] = 0x5a;
      }
      const std::size_t sep = 10 + rng.next_u32() % (em.size() - 10);
      em[sep] = 0x00;
    }
    std::vector<std::uint32_t> w(em.begin(), em.end());
    const auto scan = ctb::pkcs1_unpad_scan(w.data(), w.size());
    const auto out = rsa::rsaes_pkcs1_v15_unpad(em);
    ASSERT_EQ(scan.ok_mask != 0, out.has_value());
    if (out.has_value()) {
      ASSERT_EQ(out->size(), em.size() - scan.msg_start);
      EXPECT_TRUE(std::equal(
          out->begin(), out->end(),
          em.begin() + static_cast<std::ptrdiff_t>(scan.msg_start)));
    }
  }
}

TEST_F(CtCheckTest, LeakyPkcs1UnpadIsDetected) {
  // Separator at index 12: the early-exit loop examines indices 2..12,
  // branching on each — exactly 11 kBranch records, nothing else.
  std::vector<std::uint8_t> em(32, 0xaa);
  em[0] = 0x00;
  em[1] = 0x02;
  em[12] = 0x00;
  const auto tw = taint_bytes(em);
  const std::size_t sep = leaky_pkcs1_unpad_scan(tw.data(), tw.size());
  EXPECT_EQ(sep, 12u);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 11u);
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 0u);

  // No separator: every byte from index 2 on is examined.
  clear_violations();
  std::vector<std::uint8_t> none(32, 0xbb);
  const auto tw2 = taint_bytes(none);
  EXPECT_EQ(leaky_pkcs1_unpad_scan(tw2.data(), tw2.size()), 0u);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 30u);
}

TEST_F(CtCheckTest, LeakyCbcPadCheckIsDetected) {
  // Valid pad of 5: one kIndex (the pad-length extraction) plus one
  // kBranch per compared pad byte.
  std::array<std::uint8_t, 16> t{};
  for (std::size_t i = 0; i < 16; ++i) {
    t[i] = (i >= 11) ? 5 : static_cast<std::uint8_t>(i + 1);
  }
  const auto tw = taint_bytes(t);
  EXPECT_TRUE(leaky_cbc_pad_check(tw.data(), 16));
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 1u);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 5u);

  // Mismatch at the second examined byte: the early exit stops there —
  // the violation COUNT itself is the timing signal the production
  // kernel's single-accumulator shape removes.
  clear_violations();
  auto bad = t;
  bad[14] = 0x7f;
  const auto twb = taint_bytes(bad);
  EXPECT_FALSE(leaky_cbc_pad_check(twb.data(), 16));
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 1u);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 2u);
}

// ---- AES fallback certification ---------------------------------------
//
// util::Aes's portable path is util/aes_generic.hpp instantiated with
// std::uint32_t. Replaying the same templates over secret TW32 words --
// key bytes for the expansion, key and block for encryption and
// decryption -- must record nothing and give the native words exactly.

namespace aesct = util::aesct;

struct AesReplay {
  std::array<std::uint32_t, aesct::kRoundKeyWords> rk{};
  std::array<TW32, aesct::kRoundKeyWords> trk{};
};

AesReplay expand_both(std::span<const std::uint8_t> key) {
  AesReplay r;
  std::uint32_t k[16];
  for (std::size_t i = 0; i < 16; ++i) k[i] = key[i];
  aesct::expand_key(k, r.rk.data());
  auto tk = taint_bytes(key);
  aesct::expand_key(tk.data(), r.trk.data());
  return r;
}

TEST_F(CtCheckTest, AesFallbackIsConstantTime) {
  util::Rng rng(0xae5c7);
  std::vector<std::vector<std::uint8_t>> keys = {
      {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
       0x0b, 0x0c, 0x0d, 0x0e, 0x0f}};  // FIPS 197 C.1
  keys.push_back(std::vector<std::uint8_t>(16, 0x00));
  keys.push_back(std::vector<std::uint8_t>(16, 0xff));
  for (int i = 0; i < 4; ++i) keys.push_back(rng.bytes(16));

  for (std::size_t ki = 0; ki < keys.size(); ++ki) {
    const AesReplay r = expand_both(keys[ki]);
    EXPECT_EQ(violation_count(), 0u) << "key expansion, key " << ki;
    for (std::size_t i = 0; i < r.rk.size(); ++i) {
      ASSERT_EQ(peek32(r.trk[i]), r.rk[i]) << "round-key word " << i;
      ASSERT_TRUE(r.trk[i].secret);
    }

    std::vector<std::uint8_t> block = rng.bytes(16);
    if (ki == 0) {
      block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
               0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    }
    std::uint32_t in[16], enc[16], dec[16];
    for (std::size_t i = 0; i < 16; ++i) in[i] = block[i];
    aesct::encrypt(r.rk.data(), in, enc);
    aesct::decrypt(r.rk.data(), in, dec);

    const auto tin = taint_bytes(block);
    std::array<TW32, 16> tenc, tdec;
    aesct::encrypt(r.trk.data(), tin.data(), tenc.data());
    aesct::decrypt(r.trk.data(), tin.data(), tdec.data());
    EXPECT_EQ(violation_count(), 0u) << "encrypt/decrypt, key " << ki;
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(peek32(tenc[i]), enc[i]);
      EXPECT_EQ(peek32(tdec[i]), dec[i]);
      EXPECT_TRUE(tenc[i].secret && tdec[i].secret);
    }
    if (ki == 0) {  // FIPS 197 Appendix C.1 ciphertext
      const std::uint8_t want[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                     0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                     0x70, 0xb4, 0xc5, 0x5a};
      for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(enc[i], want[i]);
    }
  }
}

TEST_F(CtCheckTest, LeakyTableSboxIsDetected) {
  // The deleted table SubBytes over one secret state: one kIndex per
  // byte, no branch, and the same bytes as the bitsliced SubBytes the
  // fallback certified above computes.
  const std::vector<std::uint8_t> state = util::Rng(0x5b0c).bytes(16);
  const auto tw = taint_bytes(state);
  std::uint32_t table_out[16];
  leaky_table_sub_bytes(tw.data(), table_out, tw.size());
  EXPECT_EQ(violation_count(ViolationKind::kIndex), 16u);
  EXPECT_EQ(violation_count(ViolationKind::kBranch), 0u);

  std::uint32_t in[16], bitsliced[16];
  for (std::size_t i = 0; i < 16; ++i) in[i] = state[i];
  aesct::unpack(aesct::sub_bytes(aesct::pack(in, 16)), bitsliced, 16);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(table_out[i], bitsliced[i]);
}

}  // namespace
}  // namespace phissl::ct
