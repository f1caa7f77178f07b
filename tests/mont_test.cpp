// Unit + differential tests for the Montgomery contexts.
//
// Every context (32-bit scalar, 64-bit scalar, vectorized redundant-radix,
// radix-52 almost-Montgomery) is checked against the BigInt division-based
// oracle, and against each other, on randomized inputs across modulus
// sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bigint/bigint.hpp"
#include "ifma_ripple_cases.hpp"
#include "mont/ifma_kernels.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"
#include "util/cpu.hpp"
#include "util/random.hpp"

namespace phissl::mont {
namespace {

using bigint::BigInt;

BigInt random_odd_modulus(std::size_t bits, util::Rng& rng) {
  return BigInt::random_odd_exact_bits(bits, rng);
}

TEST(NegInv, U32KnownValues) {
  for (std::uint32_t x : {1u, 3u, 5u, 0xffffffffu, 0x12345679u}) {
    const std::uint32_t inv = neg_inv_u32(x);
    EXPECT_EQ(static_cast<std::uint32_t>(x * (0u - inv)), 1u) << x;
  }
}

TEST(NegInv, U64KnownValues) {
  for (std::uint64_t x :
       {1ull, 3ull, 0xffffffffffffffffull, 0x123456789abcdef1ull}) {
    const std::uint64_t inv = neg_inv_u64(x);
    EXPECT_EQ(x * (0u - inv), 1ull) << x;
  }
}

TEST(MontCtx32, RejectsBadModulus) {
  EXPECT_THROW(MontCtx32(BigInt{4}), std::invalid_argument);   // even
  EXPECT_THROW(MontCtx32(BigInt{1}), std::invalid_argument);   // too small
  EXPECT_THROW(MontCtx32(BigInt{-7}), std::invalid_argument);  // negative
  EXPECT_THROW(MontCtx32(BigInt{}), std::invalid_argument);    // zero
}

TEST(MontCtx64, RejectsBadModulus) {
  EXPECT_THROW(MontCtx64(BigInt{4}), std::invalid_argument);
  EXPECT_THROW(MontCtx64(BigInt{1}), std::invalid_argument);
}

TEST(VectorMontCtx, RejectsBadModulus) {
  EXPECT_THROW(VectorMontCtx(BigInt{4}), std::invalid_argument);
  EXPECT_THROW(VectorMontCtx(BigInt{1}), std::invalid_argument);
}

TEST(VectorMontCtx, RejectsBadDigitBits) {
  util::Rng rng(1);
  const BigInt m = random_odd_modulus(256, rng);
  EXPECT_THROW(VectorMontCtx(m, 7), std::invalid_argument);
  EXPECT_THROW(VectorMontCtx(m, 30), std::invalid_argument);
  EXPECT_NO_THROW(VectorMontCtx(m, 29));  // fine at 256 bits (d=9)
}

TEST(VectorMontCtx, RejectsOverflowingDigitConfig) {
  util::Rng rng(2);
  // At 29-bit digits, 2048-bit modulus gives d=71: 142 * 2^58 > 2^63.
  const BigInt m = random_odd_modulus(2048, rng);
  EXPECT_THROW(VectorMontCtx(m, 29), std::invalid_argument);
  EXPECT_NO_THROW(VectorMontCtx(m, 27));
}

TEST(VectorMontCtx, PackUnpackRoundTrip) {
  util::Rng rng(3);
  const BigInt m = random_odd_modulus(521, rng);
  const VectorMontCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    const BigInt x = BigInt::random_below(m, rng);
    EXPECT_EQ(ctx.unpack(ctx.pack(x)), x);
  }
  EXPECT_EQ(ctx.rep_size() % 16, 0u);
  for (const auto digit : ctx.pack(m)) {
    EXPECT_LT(digit, 1u << ctx.digit_bits());
  }
}

TEST(MontCtx32, SmallModulusExactValues) {
  // m = 97: hand-checkable Montgomery arithmetic.
  const BigInt m{97};
  const MontCtx32 ctx(m);
  const auto a = ctx.to_mont(BigInt{5});
  const auto b = ctx.to_mont(BigInt{7});
  MontCtx32::Rep out;
  ctx.mul(a, b, out);
  EXPECT_EQ(ctx.from_mont(out), BigInt{35});
  EXPECT_EQ(ctx.from_mont(ctx.one_mont()), BigInt{1});
  EXPECT_EQ(ctx.from_mont(ctx.to_mont(BigInt{96})), BigInt{96});
  EXPECT_EQ(ctx.from_mont(ctx.to_mont(BigInt{})), BigInt{});
}

TEST(MontCtx32, ToMontRejectsOutOfRange) {
  const MontCtx32 ctx(BigInt{97});
  EXPECT_THROW(ctx.to_mont(BigInt{97}), std::invalid_argument);
  EXPECT_THROW(ctx.to_mont(BigInt{-1}), std::invalid_argument);
}

template <typename Ctx>
class MontDifferential : public ::testing::Test {};

using CtxTypes =
    ::testing::Types<MontCtx32, MontCtx64, VectorMontCtx, IfmaMontCtx>;
TYPED_TEST_SUITE(MontDifferential, CtxTypes);

TYPED_TEST(MontDifferential, MulMatchesOracleAcrossSizes) {
  util::Rng rng(7);
  for (std::size_t bits : {33u, 64u, 128u, 512u, 1024u, 2048u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const TypeParam ctx(m);
    for (int i = 0; i < 8; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      const auto xm = ctx.to_mont(x);
      const auto ym = ctx.to_mont(y);
      typename TypeParam::Rep out;
      ctx.mul(xm, ym, out);
      EXPECT_EQ(ctx.from_mont(out), (x * y).mod(m))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TYPED_TEST(MontDifferential, RoundTripIdentity) {
  util::Rng rng(8);
  for (std::size_t bits : {65u, 1025u}) {  // off-by-one-from-limb sizes
    const BigInt m = random_odd_modulus(bits, rng);
    const TypeParam ctx(m);
    for (int i = 0; i < 10; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      EXPECT_EQ(ctx.from_mont(ctx.to_mont(x)), x);
    }
  }
}

TYPED_TEST(MontDifferential, MulByOneAndZero) {
  util::Rng rng(9);
  const BigInt m = random_odd_modulus(512, rng);
  const TypeParam ctx(m);
  const BigInt x = BigInt::random_below(m, rng);
  const auto xm = ctx.to_mont(x);
  typename TypeParam::Rep out;
  ctx.mul(xm, ctx.one_mont(), out);
  EXPECT_EQ(ctx.from_mont(out), x);
  const auto zero = ctx.to_mont(BigInt{});
  ctx.mul(xm, zero, out);
  EXPECT_EQ(ctx.from_mont(out), BigInt{});
}

TYPED_TEST(MontDifferential, SqrMatchesMul) {
  // Differential sqr(a) == mul(a,a) across the full RSA-relevant size range
  // plus the edge operands (0, 1, m-1) that stress the REDC tail and the
  // constant-time final subtract.
  util::Rng rng(10);
  for (std::size_t bits : {512u, 768u, 1024u, 2048u, 3072u, 4096u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const TypeParam ctx(m);
    std::vector<BigInt> operands = {BigInt{}, BigInt{1}, m - BigInt{1}};
    for (int i = 0; i < 5; ++i) {
      operands.push_back(BigInt::random_below(m, rng));
    }
    for (const BigInt& x : operands) {
      const auto xm = ctx.to_mont(x);
      typename TypeParam::Rep s, p;
      ctx.sqr(xm, s);
      ctx.mul(xm, xm, p);
      EXPECT_EQ(ctx.from_mont(s), ctx.from_mont(p)) << "bits=" << bits;
      EXPECT_EQ(ctx.from_mont(s), (x * x).mod(m)) << "bits=" << bits;
    }
  }
}

TYPED_TEST(MontDifferential, SqrWithWorkspaceMatchesAllocatingPath) {
  // One workspace reused across sizes and operands must give identical
  // results to the allocating overloads (and never corrupt state between
  // calls).
  util::Rng rng(15);
  typename TypeParam::Workspace ws;
  for (std::size_t bits : {512u, 2048u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const TypeParam ctx(m);
    for (int i = 0; i < 6; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const auto xm = ctx.to_mont(x);
      typename TypeParam::Rep s_ws, s_alloc;
      ctx.sqr(xm, s_ws, ws);
      ctx.sqr(xm, s_alloc);
      EXPECT_EQ(s_ws, s_alloc) << "bits=" << bits;
      EXPECT_EQ(ctx.from_mont(s_ws), (x * x).mod(m)) << "bits=" << bits;
    }
  }
}

TYPED_TEST(MontDifferential, WorstCaseOperands) {
  // m-1 (all-ones-ish) operands push the conditional-subtract path.
  util::Rng rng(11);
  for (std::size_t bits : {64u, 512u, 2048u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const TypeParam ctx(m);
    const BigInt top = m - BigInt{1};
    const auto tm = ctx.to_mont(top);
    typename TypeParam::Rep out;
    ctx.mul(tm, tm, out);
    EXPECT_EQ(ctx.from_mont(out), (top * top).mod(m));
  }
}

TYPED_TEST(MontDifferential, DenseModulus) {
  // Moduli close to 2^bits (many high bits set) stress the final subtract.
  for (std::size_t bits : {96u, 416u, 1056u}) {
    const BigInt m = (BigInt{1} << bits) - BigInt{189};  // odd, dense
    ASSERT_TRUE(m.is_odd());
    const TypeParam ctx(m);
    util::Rng rng(bits);
    for (int i = 0; i < 5; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      const auto xm = ctx.to_mont(x), ym = ctx.to_mont(y);
      typename TypeParam::Rep out;
      ctx.mul(xm, ym, out);
      EXPECT_EQ(ctx.from_mont(out), (x * y).mod(m));
    }
  }
}

TEST(IfmaMont, RejectsBadModulus) {
  EXPECT_THROW(IfmaMontCtx(BigInt{4}), std::invalid_argument);
  EXPECT_THROW(IfmaMontCtx(BigInt{1}), std::invalid_argument);
  EXPECT_THROW(IfmaMontCtx(BigInt{-7}), std::invalid_argument);
  EXPECT_THROW(IfmaMontCtx(BigInt{}), std::invalid_argument);
}

TEST(IfmaMont, PortablePathMatchesDispatchedPath) {
  // The vpmadd52 kernel (when the host dispatches it) and the portable
  // u128-column instantiation compute the same almost-Montgomery product:
  // their residue representations must be bit-identical, not merely
  // congruent.
  util::Rng rng(31);
  for (std::size_t bits : {128u, 512u, 2048u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const IfmaMontCtx dispatched(m);
    const IfmaMontCtx portable(m, /*force_portable=*/true);
    for (int i = 0; i < 6; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      IfmaMontCtx::Rep od, op, sd, sp;
      dispatched.mul(dispatched.to_mont(x), dispatched.to_mont(y), od);
      portable.mul(portable.to_mont(x), portable.to_mont(y), op);
      EXPECT_EQ(od, op) << "bits=" << bits;
      dispatched.sqr(dispatched.to_mont(x), sd);
      portable.sqr(portable.to_mont(x), sp);
      EXPECT_EQ(sd, sp) << "bits=" << bits;
      EXPECT_EQ(dispatched.from_mont(od), (x * y).mod(m));
    }
  }
}

TEST(IfmaMont, DigitEdgeValues) {
  // Operands and moduli sitting on 52-bit digit boundaries: single-digit
  // saturation (2^52 - 1), the digit rollover (2^52, 2^52 + 1), two-digit
  // saturation (2^104 - 1), and a dense modulus — the patterns that stress
  // the 52-bit masking, the column carries, and the final conditional
  // subtract out of [0, 2m).
  const BigInt beta = BigInt{1} << 52;
  for (const BigInt& m : {(BigInt{1} << 416) - BigInt{189},   // dense
                          (BigInt{1} << 208) + BigInt{1},     // 4 digits + 1
                          (beta * beta) * beta - BigInt{1}}) {  // beta^3 - 1
    ASSERT_TRUE(m.is_odd());
    const IfmaMontCtx ctx(m);
    const IfmaMontCtx pctx(m, /*force_portable=*/true);
    std::vector<BigInt> edges = {BigInt{},        BigInt{1},
                                 beta - BigInt{1}, beta,
                                 beta + BigInt{1}, beta * beta - BigInt{1},
                                 m - BigInt{1}};
    // Every-digit-saturated value below m.
    BigInt sat = BigInt{1};
    while (sat * beta <= m) sat = sat * beta;
    edges.push_back(sat - BigInt{1});
    for (const BigInt& x : edges) {
      if (x >= m) continue;
      for (const BigInt& y : edges) {
        if (y >= m) continue;
        IfmaMontCtx::Rep out, pout;
        ctx.mul(ctx.to_mont(x), ctx.to_mont(y), out);
        pctx.mul(pctx.to_mont(x), pctx.to_mont(y), pout);
        const BigInt expected = (x * y).mod(m);
        EXPECT_EQ(ctx.from_mont(out), expected)
            << "x=" << x.to_hex() << " y=" << y.to_hex();
        EXPECT_EQ(pctx.from_mont(pout), expected);
      }
      IfmaMontCtx::Rep s;
      ctx.sqr(ctx.to_mont(x), s);
      EXPECT_EQ(ctx.from_mont(s), (x * x).mod(m)) << x.to_hex();
    }
  }
}

TEST(IfmaMont, CrossBackendAgreementAcrossSizes) {
  // Randomized ifma52 (both paths) vs scalar64 vs the KNC-style vector
  // backend at every RSA-relevant size, against the division oracle.
  util::Rng rng(32);
  for (std::size_t bits : {512u, 1024u, 2048u, 4096u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const MontCtx64 c64(m);
    const VectorMontCtx cv(m);
    const IfmaMontCtx ci(m);
    const IfmaMontCtx cp(m, /*force_portable=*/true);
    for (int i = 0; i < 4; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      MontCtx64::Rep o64;
      VectorMontCtx::Rep ov;
      IfmaMontCtx::Rep oi, op;
      c64.mul(c64.to_mont(x), c64.to_mont(y), o64);
      cv.mul(cv.to_mont(x), cv.to_mont(y), ov);
      ci.mul(ci.to_mont(x), ci.to_mont(y), oi);
      cp.mul(cp.to_mont(x), cp.to_mont(y), op);
      const BigInt expected = (x * y).mod(m);
      EXPECT_EQ(c64.from_mont(o64), expected) << "bits=" << bits;
      EXPECT_EQ(cv.from_mont(ov), expected) << "bits=" << bits;
      EXPECT_EQ(ci.from_mont(oi), expected) << "bits=" << bits;
      EXPECT_EQ(cp.from_mont(op), expected) << "bits=" << bits;
    }
  }
}

TEST(IfmaMont, MulAllowsAliasedOutput) {
  util::Rng rng(33);
  const BigInt m = random_odd_modulus(512, rng);
  const IfmaMontCtx ctx(m);
  const BigInt x = BigInt::random_below(m, rng);
  const BigInt y = BigInt::random_below(m, rng);
  auto xm = ctx.to_mont(x);
  const auto ym = ctx.to_mont(y);
  ctx.mul(xm, ym, xm);  // out aliases a
  EXPECT_EQ(ctx.from_mont(xm), (x * y).mod(m));
  auto zm = ctx.to_mont(x);
  ctx.sqr(zm, zm);  // out aliases a in sqr too
  EXPECT_EQ(ctx.from_mont(zm), (x * x).mod(m));
}

TEST(IfmaMont, CarryRippleInputsMatchPortable) {
  // Digit-built carry-ripple operands (tests/ifma_ripple_cases.hpp) at
  // 512-4096 bits, also with operands in [m, 2m) and on moduli of exactly
  // 52d - 2 bits: the dispatched kernel (vpmadd52 on an IFMA host) must
  // produce the portable kernel's words exactly, and both the exact
  // almost-Montgomery product, which may itself lie in [m, 2m).
  std::size_t checked = 0;
  for (const ripple::Case& c : ripple::pair_cases()) {
    const IfmaMontCtx ctx(c.m);
    const IfmaMontCtx pctx(c.m, /*force_portable=*/true);
    const std::size_t d = ctx.digits();
    for (const auto& [a, b] : c.pairs) {
      IfmaMontCtx::Rep ar, br, out, pout;
      ctx.pack(a, ar);
      ctx.pack(b, br);
      ctx.mul(ar, br, out);
      pctx.mul(ar, br, pout);
      ASSERT_EQ(out, pout) << "mul " << c.what << " a=" << a.to_hex();
      EXPECT_EQ(ripple::value(out), ripple::amm(a, b, c.m, d))
          << "mul " << c.what << " a=" << a.to_hex();
      ctx.sqr(ar, out);
      pctx.sqr(ar, pout);
      ASSERT_EQ(out, pout) << "sqr " << c.what << " a=" << a.to_hex();
      EXPECT_EQ(ripple::value(out), ripple::amm(a, a, c.m, d))
          << "sqr " << c.what << " a=" << a.to_hex();
      // A few squarings on from each start reach more carry shapes.
      IfmaMontCtx::Rep s = ar, ps = ar;
      for (int i = 0; i < 4; ++i) {
        ctx.sqr(s, s);
        pctx.sqr(ps, ps);
      }
      EXPECT_EQ(s, ps) << "sqr chain " << c.what << " a=" << a.to_hex();
      ++checked;
    }
  }
  EXPECT_EQ(checked, ripple::kPairCaseProducts);
}

TEST(IfmaMont, LargeAndDigitBoundaryModuli) {
  // The register counts at the top of the one-half kernel (6144 bits:
  // N = 15; 8192 bits: N = 20) and the sizes where d gains a digit
  // (52k - 2 bits still fit k digits, 52k - 1 bits need k + 1): an IFMA
  // host dispatches the vpmadd52 kernel up to d = 160 and the portable
  // one past it, the two give the same words, and from_mont gives the
  // BigInt product.
  const bool ifma_host = ifma::compiled() && util::cpu_features().avx512ifma;
  util::Rng rng(35);
  std::vector<BigInt> moduli = {BigInt::random_odd_exact_bits(6144, rng),
                                BigInt::random_odd_exact_bits(8192, rng),
                                (BigInt{1} << 8192) - BigInt{1}};
  for (const std::size_t k : {std::size_t{10}, std::size_t{20},
                              std::size_t{40}, std::size_t{120},
                              std::size_t{158}, std::size_t{160}}) {
    for (const std::size_t bits : {52 * k - 2, 52 * k - 1, 52 * k}) {
      moduli.push_back(BigInt::random_odd_exact_bits(bits, rng));
    }
  }
  for (const BigInt& m : moduli) {
    const IfmaMontCtx ctx(m);
    const IfmaMontCtx pctx(m, /*force_portable=*/true);
    const std::size_t bits = m.bit_length();
    ASSERT_EQ(ctx.digits(), (bits + 2 + 51) / 52) << bits;
    EXPECT_EQ(ctx.uses_ifma(),
              ifma_host && ctx.digits() <= ifma::amm_max_digits(1))
        << bits;
    EXPECT_FALSE(pctx.uses_ifma());
    for (int i = 0; i < 3; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      const IfmaMontCtx::Rep xm = ctx.to_mont(x);
      const IfmaMontCtx::Rep ym = ctx.to_mont(y);
      IfmaMontCtx::Rep out, pout;
      ctx.mul(xm, ym, out);
      pctx.mul(xm, ym, pout);
      ASSERT_EQ(out, pout) << "mul bits=" << bits;
      EXPECT_EQ(ctx.from_mont(out), (x * y).mod(m)) << "mul bits=" << bits;
      ctx.sqr(out, out);
      pctx.sqr(pout, pout);
      ASSERT_EQ(out, pout) << "sqr bits=" << bits;
      EXPECT_EQ(ctx.from_mont(out), (x * y * x * y).mod(m))
          << "sqr bits=" << bits;
    }
  }
}

TEST(IfmaMont, SharedWorkspaceAcrossGeometries) {
  // One Workspace serves contexts of different digit geometry (rsa::Engine
  // keeps a single thread_local ExpWorkspace<IfmaMontCtx> that the
  // full-size public ctx and the half-size CRT ctxs share): big-geometry
  // traffic must leave nothing in the shared scratch that changes a
  // half-size result.
  util::Rng rng(34);
  const BigInt mbig = random_odd_modulus(2048, rng);
  const BigInt mhalf = random_odd_modulus(1024, rng);
  for (const bool portable : {false, true}) {
    const IfmaMontCtx big(mbig, portable);
    const IfmaMontCtx half(mhalf, portable);
    IfmaMontCtx::Workspace ws;
    BigInt got;
    for (int i = 0; i < 4; ++i) {
      const BigInt a = BigInt::random_below(mbig, rng);
      const BigInt b = BigInt::random_below(mbig, rng);
      const BigInt x = BigInt::random_below(mhalf, rng);
      const BigInt y = BigInt::random_below(mhalf, rng);
      IfmaMontCtx::Rep am, bm, o, xm, ym;
      // Big-geometry traffic first: fills the shared scratch with the
      // large modulus' digits.
      big.to_mont(a, am, ws);
      big.to_mont(b, bm, ws);
      big.mul(am, bm, o, ws);
      big.from_mont(o, got, ws);
      EXPECT_EQ(got, (a * b).mod(mbig)) << "portable=" << portable;
      // Then half-size traffic through the SAME workspace.
      half.to_mont(x, xm, ws);
      half.to_mont(y, ym, ws);
      half.mul(xm, ym, o, ws);
      half.from_mont(o, got, ws);
      EXPECT_EQ(got, (x * y).mod(mhalf)) << "portable=" << portable;
      half.sqr(xm, o, ws);
      half.from_mont(o, got, ws);
      EXPECT_EQ(got, (x * x).mod(mhalf)) << "portable=" << portable;
    }
  }
}

TEST(VectorMont, VectorMatchesScalarRefAcrossDigitWidths) {
  util::Rng rng(12);
  for (unsigned db : {8u, 13u, 20u, 24u, 26u, 27u}) {
    const BigInt m = random_odd_modulus(512, rng);
    const VectorMontCtx ctx(m, db);
    for (int i = 0; i < 6; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      const auto xm = ctx.to_mont(x), ym = ctx.to_mont(y);
      VectorMontCtx::Rep v, s;
      ctx.mul(xm, ym, v);
      ctx.mul_scalar_ref(xm, ym, s);
      EXPECT_EQ(v, s) << "digit_bits=" << db;
      EXPECT_EQ(ctx.from_mont(v), (x * y).mod(m)) << "digit_bits=" << db;
    }
  }
}

TEST(VectorMont, CrossContextAgreement) {
  util::Rng rng(13);
  for (std::size_t bits : {128u, 1024u, 3072u}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const MontCtx32 c32(m);
    const MontCtx64 c64(m);
    const VectorMontCtx cv(m);
    for (int i = 0; i < 5; ++i) {
      const BigInt x = BigInt::random_below(m, rng);
      const BigInt y = BigInt::random_below(m, rng);
      MontCtx32::Rep o32;
      MontCtx64::Rep o64;
      VectorMontCtx::Rep ov;
      c32.mul(c32.to_mont(x), c32.to_mont(y), o32);
      c64.mul(c64.to_mont(x), c64.to_mont(y), o64);
      cv.mul(cv.to_mont(x), cv.to_mont(y), ov);
      const BigInt expected = (x * y).mod(m);
      EXPECT_EQ(c32.from_mont(o32), expected);
      EXPECT_EQ(c64.from_mont(o64), expected);
      EXPECT_EQ(cv.from_mont(ov), expected);
    }
  }
}

TEST(VectorMont, SqrFallbackThresholdIsStructural) {
  // Below kSqrMinDigits the dedicated squaring kernel loses to the plain
  // multiply (bench_mont_exp's sqr-ratio check measured the regression),
  // so sqr() must route through mul there and report it via sqr_uses_mul.
  util::Rng rng(16);
  const VectorMontCtx small(random_odd_modulus(512, rng));   // d = 19
  const VectorMontCtx large(random_odd_modulus(2048, rng));  // d = 76
  EXPECT_LT(small.digits(), VectorMontCtx::kSqrMinDigits);
  EXPECT_TRUE(small.sqr_uses_mul());
  EXPECT_GE(large.digits(), VectorMontCtx::kSqrMinDigits);
  EXPECT_FALSE(large.sqr_uses_mul());
}

TEST(VectorMont, MulAllowsAliasedOutput) {
  util::Rng rng(14);
  const BigInt m = random_odd_modulus(256, rng);
  const VectorMontCtx ctx(m);
  const BigInt x = BigInt::random_below(m, rng);
  const BigInt y = BigInt::random_below(m, rng);
  auto xm = ctx.to_mont(x);
  const auto ym = ctx.to_mont(y);
  const BigInt expected = (x * y).mod(m);
  ctx.mul(xm, ym, xm);  // out aliases a
  EXPECT_EQ(ctx.from_mont(xm), expected);
}

}  // namespace
}  // namespace phissl::mont
