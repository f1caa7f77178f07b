// The dual-modulus CRT context (mont::IfmaPairCtx) and its schedule
// (mont::fixed_window_exp_pair), each test run on the ifma52 backend
// (vpmadd52 pair kernel when the CPU has IFMA) and on ifma52-portable (the
// u128 instantiation of r52::amm_g), against two scalar64
// exponentiations: digit counts d = 10, 20, 30, 40, halves of equal and
// unequal size, moduli at the 4m < beta^d bound, edge bases and
// exponents. Also pins the batched kernel counters
// (phissl_mont_*_total{ctx="ifma52"}) to the schedules' product counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "mont/mont64.hpp"
#include "obs/metrics.hpp"
#include "rsa/backend.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

namespace phissl::mont {
namespace {

using bigint::BigInt;

class IfmaPairTest : public ::testing::TestWithParam<rsa::Backend> {
 protected:
  [[nodiscard]] bool portable() const {
    return GetParam() == rsa::Backend::kIfma52Portable;
  }
  [[nodiscard]] IfmaPairCtx make(const BigInt& p, const BigInt& q) const {
    return IfmaPairCtx(p, q, portable());
  }
};

/// Checks the pair exponentiation of (xp, xq) against two scalar64 ones.
void expect_pair_exp(const IfmaPairCtx& ctx, const BigInt& xp,
                     const BigInt& xq, const BigInt& ep, const BigInt& eq,
                     const std::string& what) {
  ExpWorkspace<IfmaPairCtx> ws;
  BigInt rp, rq;
  fixed_window_exp_pair(ctx, xp, xq, ep, eq, rp, rq, ws);
  EXPECT_EQ(rp, fixed_window_exp(MontCtx64(ctx.modulus_p()), xp, ep)) << what;
  EXPECT_EQ(rq, fixed_window_exp(MontCtx64(ctx.modulus_q()), xq, eq)) << what;
}

TEST(IfmaPair, RejectsBadModuli) {
  EXPECT_THROW(IfmaPairCtx(BigInt{10}, BigInt{7}), std::invalid_argument);
  EXPECT_THROW(IfmaPairCtx(BigInt{7}, BigInt{1}), std::invalid_argument);
  const IfmaPairCtx ctx(BigInt{11}, BigInt{13});
  IfmaPairCtx::Workspace ws;
  IfmaPairCtx::Rep out;
  EXPECT_THROW(ctx.to_mont(BigInt{11}, BigInt{1}, out, ws),
               std::invalid_argument);
  EXPECT_THROW(ctx.to_mont(BigInt{1}, BigInt{13}, out, ws),
               std::invalid_argument);
}

TEST(IfmaPair, DigitCountKeepsFourMBelowR) {
  // d = ceil((bits + 2) / 52) of the larger half: 52d - 2 bits still fit
  // d digits, 52d - 1 bits need one more.
  util::Rng rng(1);
  for (const std::size_t d : {std::size_t{10}, std::size_t{20}}) {
    const BigInt tight = BigInt::random_odd_exact_bits(52 * d - 2, rng);
    const BigInt over = BigInt::random_odd_exact_bits(52 * d - 1, rng);
    const BigInt small = BigInt::random_odd_exact_bits(100, rng);
    EXPECT_EQ(IfmaPairCtx(tight, small).digits(), d);
    EXPECT_EQ(IfmaPairCtx(small, tight).digits(), d);
    EXPECT_EQ(IfmaPairCtx(over, small).digits(), d + 1);
    EXPECT_EQ(IfmaPairCtx(tight, small).half_words() % 8, 0u);
  }
}

TEST_P(IfmaPairTest, ReportsItsKernel) {
  const rsa::PrivateKey& key = rsa::test_key(1024);
  const IfmaPairCtx ctx = make(key.p, key.q);
  EXPECT_EQ(ctx.uses_ifma(), !portable() && IfmaMontCtx(key.p).uses_ifma());
}

TEST_P(IfmaPairTest, ExpMatchesScalar64AcrossDigitCounts) {
  util::Rng rng(0x9a1c + static_cast<unsigned>(portable()));
  for (const std::size_t d : {std::size_t{10}, std::size_t{20}, std::size_t{30},
                              std::size_t{40}}) {
    const std::size_t bits = 52 * d - 2;  // the tightest modulus for d
    const std::vector<std::pair<BigInt, BigInt>> moduli = {
        {BigInt::random_odd_exact_bits(bits, rng),
         BigInt::random_odd_exact_bits(bits, rng)},
        // Unequal halves: q shares p's d with fewer significant digits.
        {BigInt::random_odd_exact_bits(bits, rng),
         BigInt::random_odd_exact_bits(bits - 70, rng)},
        {BigInt::random_odd_exact_bits(bits - 140, rng),
         (BigInt{1} << bits) - BigInt{1}},
    };
    for (const auto& [p, q] : moduli) {
      const IfmaPairCtx ctx = make(p, q);
      ASSERT_EQ(ctx.digits(), d);
      const std::string what = "d=" + std::to_string(d) + " p" +
                               std::to_string(p.bit_length()) + " q" +
                               std::to_string(q.bit_length());
      const BigInt xp = BigInt::random_below(p, rng);
      const BigInt xq = BigInt::random_below(q, rng);
      expect_pair_exp(ctx, xp, xq, BigInt::random_bits(p.bit_length(), rng),
                      BigInt::random_bits(q.bit_length(), rng), what);
      // Exponents of very different lengths: q's top windows select the
      // table's Montgomery one.
      expect_pair_exp(ctx, xp, xq, p - BigInt{2}, BigInt{3}, what + " short q");
    }
  }
}

TEST_P(IfmaPairTest, EdgeBasesAndExponents) {
  const rsa::PrivateKey& key = rsa::test_key(1024);
  const BigInt& p = key.p;
  const BigInt& q = key.q;
  const IfmaPairCtx ctx = make(p, q);
  util::Rng rng(7);
  const std::vector<std::pair<BigInt, BigInt>> bases = {
      {BigInt{}, BigInt{}},
      {BigInt{1}, BigInt{1}},
      {p - BigInt{1}, q - BigInt{1}},
      {BigInt{}, q - BigInt{1}},
      {BigInt::random_below(p, rng), BigInt::random_below(q, rng)}};
  const std::vector<std::pair<BigInt, BigInt>> exps = {
      {BigInt{}, BigInt{}},          {BigInt{1}, BigInt{1}},
      {BigInt{2}, BigInt{2}},        {p - BigInt{2}, q - BigInt{2}},
      {key.dp, key.dq},              {BigInt{}, key.dq}};
  for (const auto& [xp, xq] : bases) {
    for (const auto& [ep, eq] : exps) {
      expect_pair_exp(ctx, xp, xq, ep, eq,
                      "x=" + xp.to_hex() + " e=" + ep.to_hex());
    }
  }
}

TEST_P(IfmaPairTest, EveryWindowWidthAgrees) {
  const rsa::PrivateKey& key = rsa::test_key(512);
  const IfmaPairCtx ctx = make(key.p, key.q);
  util::Rng rng(9);
  const BigInt xp = BigInt::random_below(key.p, rng);
  const BigInt xq = BigInt::random_below(key.q, rng);
  ExpWorkspace<IfmaPairCtx> ws;
  for (int w = 1; w <= 7; ++w) {
    BigInt rp, rq;
    fixed_window_exp_pair(ctx, xp, xq, key.dp, key.dq, rp, rq, ws, w);
    EXPECT_EQ(rp, xp.mod_pow(key.dp, key.p)) << w;
    EXPECT_EQ(rq, xq.mod_pow(key.dq, key.q)) << w;
  }
}

TEST_P(IfmaPairTest, EngineCrtOpMatchesScalar64) {
  for (const std::size_t bits :
       {std::size_t{512}, std::size_t{1024}, std::size_t{2048}}) {
    const rsa::PrivateKey& key = rsa::test_key(bits);
    const rsa::Engine eng(key, rsa::EngineOptions{.kernel = GetParam()});
    const rsa::Engine ref(
        key, rsa::EngineOptions{.kernel = rsa::Backend::kScalar64});
    util::Rng rng(bits);
    for (int i = 0; i < 3; ++i) {
      const BigInt x = BigInt::random_below(key.pub.n, rng);
      EXPECT_EQ(eng.private_op(x), ref.private_op(x)) << bits;
    }
    EXPECT_EQ(eng.private_op(BigInt{}), BigInt{}) << bits;
    EXPECT_EQ(eng.private_op(key.p), ref.private_op(key.p)) << bits;
  }
}

#if PHISSL_OBS_ENABLED
struct KernelCounts {
  std::uint64_t mul, sqr, redc;
};

KernelCounts ifma52_counts() {
  auto& reg = obs::Registry::global();
  const auto value = [&](const char* name) {
    return reg.counter(name, "", "ctx=\"ifma52\"").value();
  };
  return {value("phissl_mont_mul_total"), value("phissl_mont_sqr_total"),
          value("phissl_mont_redc_total")};
}

/// Products of one full-domain fixed-window exponentiation with a w-bit
/// window over `bits` exponent bits: to_mont, the table, one multiply per
/// window after the first, from_mont; w squarings per such window.
KernelCounts schedule_counts(std::size_t bits, int window) {
  const std::size_t w = static_cast<std::size_t>(window);
  const std::size_t nwin = (bits + w - 1) / w;
  const std::uint64_t mul = 1 + ((std::size_t{1} << w) - 2) + (nwin - 1) + 1;
  const std::uint64_t sqr = (nwin - 1) * w;
  return {mul, sqr, mul + sqr};
}

TEST_P(IfmaPairTest, KernelCountersAreExactAfterEachExponentiation) {
  const rsa::PrivateKey& key = rsa::test_key(1024);
  util::Rng rng(11);

  // One single-modulus exponentiation on the IfmaMontCtx the backend
  // builds.
  const IfmaMontCtx ctx(key.pub.n, portable());
  const BigInt x = BigInt::random_below(key.pub.n, rng);
  ExpWorkspace<IfmaMontCtx> ws;
  BigInt out;
  KernelCounts before = ifma52_counts();
  fixed_window_exp(ctx, x, key.d, out, ws);
  KernelCounts after = ifma52_counts();
  const int w = choose_window(key.d.bit_length());
  KernelCounts want = schedule_counts(key.d.bit_length(), w);
  EXPECT_EQ(after.mul - before.mul, want.mul);
  EXPECT_EQ(after.sqr - before.sqr, want.sqr);
  EXPECT_EQ(after.redc - before.redc, want.redc);

  // One CRT private op: every pair product counts one product per half.
  const rsa::Engine eng(key, rsa::EngineOptions{.kernel = GetParam()});
  const std::size_t bits =
      std::max(key.dp.bit_length(), key.dq.bit_length());
  want = schedule_counts(bits, choose_window(bits));
  before = ifma52_counts();
  (void)eng.private_op(x);
  after = ifma52_counts();
  EXPECT_EQ(after.mul - before.mul, 2 * want.mul);
  EXPECT_EQ(after.sqr - before.sqr, 2 * want.sqr);
  EXPECT_EQ(after.redc - before.redc, 2 * want.redc);
}
#endif

INSTANTIATE_TEST_SUITE_P(
    Backends, IfmaPairTest,
    ::testing::Values(rsa::Backend::kIfma52, rsa::Backend::kIfma52Portable),
    [](const ::testing::TestParamInfo<rsa::Backend>& p) {
      return p.param == rsa::Backend::kIfma52 ? "ifma52" : "ifma52_portable";
    });

}  // namespace
}  // namespace phissl::mont
