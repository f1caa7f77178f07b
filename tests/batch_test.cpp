// Tests for the batched lane-parallel Montgomery context and BatchEngine:
// lane-wise differential against the single-stream contexts, edge lanes,
// and the batched CRT private op against the scalar engine.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "mont/batch.hpp"
#include "mont/modexp.hpp"
#include "mont/vector_mont.hpp"
#include "rsa/backend.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

namespace phissl::mont {
namespace {

using bigint::BigInt;
constexpr std::size_t kB = BatchVectorMontCtx::kBatch;

std::array<BigInt, kB> random_lanes(const BigInt& m, util::Rng& rng) {
  std::array<BigInt, kB> xs;
  for (auto& x : xs) x = BigInt::random_below(m, rng);
  return xs;
}

// Random lanes with 0, 1 and m-1 among them.
std::array<BigInt, kB> edge_lanes(const BigInt& m, util::Rng& rng) {
  auto xs = random_lanes(m, rng);
  xs[0] = BigInt{};
  xs[1] = BigInt{1};
  xs[2] = m - BigInt{1};
  xs[15] = m - BigInt{1};
  return xs;
}

// Moduli at the radix-52 batch kernels' digit edges: d = 3 (104 bits, the
// minimum d, and 105), a full top digit (1040 and 2080 bits) and one bit
// past it (1041) — each random, all-ones and sparse (2^(bits-1) + 1).
std::vector<BigInt> edge_moduli(util::Rng& rng) {
  std::vector<BigInt> ms;
  for (const std::size_t bits : {104u, 105u, 1040u, 1041u, 2080u}) {
    ms.push_back(BigInt::random_odd_exact_bits(bits, rng));
    BigInt all_ones{1};
    all_ones <<= bits;
    ms.push_back(all_ones - BigInt{1});
    BigInt sparse{1};
    sparse <<= bits - 1;
    ms.push_back(sparse + BigInt{1});
  }
  return ms;
}

TEST(BatchMont, RejectsBadConfigs) {
  util::Rng rng(1);
  const BigInt m = BigInt::random_odd_exact_bits(2048, rng);
  EXPECT_THROW(BatchVectorMontCtx(BigInt{4}), std::invalid_argument);
  EXPECT_THROW(BatchVectorMontCtx(m, 29), std::invalid_argument);
  EXPECT_THROW(BatchVectorMontCtx(m, 7), std::invalid_argument);
  EXPECT_NO_THROW(BatchVectorMontCtx(m, 27));
}

TEST(BatchMont, ToFromMontRoundTrip) {
  util::Rng rng(2);
  for (std::size_t bits : {64u, 511u, 1024u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const BatchVectorMontCtx ctx(m);
    const auto xs = random_lanes(m, rng);
    const auto back = ctx.from_mont(ctx.to_mont(xs));
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(back[l], xs[l]) << "lane " << l;
    }
  }
}

TEST(BatchMont, MulMatchesOraclePerLane) {
  util::Rng rng(3);
  for (std::size_t bits : {128u, 1024u, 2048u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const BatchVectorMontCtx ctx(m);
    const auto xs = random_lanes(m, rng);
    const auto ys = random_lanes(m, rng);
    BatchVectorMontCtx::Rep out;
    ctx.mul(ctx.to_mont(xs), ctx.to_mont(ys), out);
    const auto got = ctx.from_mont(out);
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(got[l], (xs[l] * ys[l]).mod(m)) << "bits=" << bits
                                                << " lane=" << l;
    }
  }
}

TEST(BatchMont, EdgeLaneValues) {
  // Zero, one, and m-1 in specific lanes alongside random ones.
  util::Rng rng(4);
  const BigInt m = BigInt::random_odd_exact_bits(512, rng);
  auto xs = random_lanes(m, rng);
  auto ys = random_lanes(m, rng);
  xs[0] = BigInt{};
  xs[1] = BigInt{1};
  xs[15] = m - BigInt{1};
  ys[15] = m - BigInt{1};
  const BatchVectorMontCtx ctx(m);
  BatchVectorMontCtx::Rep out;
  ctx.mul(ctx.to_mont(xs), ctx.to_mont(ys), out);
  const auto got = ctx.from_mont(out);
  for (std::size_t l = 0; l < kB; ++l) {
    EXPECT_EQ(got[l], (xs[l] * ys[l]).mod(m)) << l;
  }
}

TEST(BatchMont, SqrMatchesMulPerLane) {
  // Differential sqr(a) == mul(a,a) on every lane, across sizes, including
  // edge lanes 0, 1, m-1 that stress doubling carries and the final
  // constant-time subtract.
  util::Rng rng(19);
  for (std::size_t bits : {512u, 1024u, 2048u, 4096u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const BatchVectorMontCtx ctx(m);
    auto xs = random_lanes(m, rng);
    xs[0] = BigInt{};
    xs[1] = BigInt{1};
    xs[2] = m - BigInt{1};
    const auto xm = ctx.to_mont(xs);
    BatchVectorMontCtx::Rep s, p;
    ctx.sqr(xm, s);
    ctx.mul(xm, xm, p);
    EXPECT_EQ(s, p) << "bits=" << bits;
    const auto got = ctx.from_mont(s);
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(got[l], (xs[l] * xs[l]).mod(m)) << "bits=" << bits
                                                << " lane=" << l;
    }
  }
}

TEST(BatchMont, SqrWithWorkspaceMatchesAllocatingPath) {
  util::Rng rng(20);
  BatchVectorMontCtx::Workspace ws;
  for (std::size_t bits : {256u, 1024u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const BatchVectorMontCtx ctx(m);
    for (int i = 0; i < 4; ++i) {
      const auto xs = random_lanes(m, rng);
      const auto xm = ctx.to_mont(xs);
      BatchVectorMontCtx::Rep s_ws, s_alloc;
      ctx.sqr(xm, s_ws, ws);
      ctx.sqr(xm, s_alloc);
      EXPECT_EQ(s_ws, s_alloc) << "bits=" << bits;
    }
  }
}

TEST(BatchMont, ModExpWorkspaceMatchesAllocatingPath) {
  // The workspace-threaded mod_exp overload must agree with the allocating
  // one, and a single workspace must stay correct when reused across
  // different exponents and window widths.
  util::Rng rng(21);
  const BigInt m = BigInt::random_odd_exact_bits(512, rng);
  const BatchVectorMontCtx ctx(m);
  ExpWorkspace<BatchVectorMontCtx> ws;
  std::array<BigInt, kB> out;
  for (int w : {0, 1, 3, 6}) {
    const auto xs = random_lanes(m, rng);
    const BigInt exp = BigInt::random_bits(512, rng);
    ctx.mod_exp(xs, exp, out, ws, w);
    const auto expected = ctx.mod_exp(xs, exp, w);
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(out[l], expected[l]) << "w=" << w << " lane=" << l;
    }
  }
}

TEST(BatchMont, SharedExponentExpMatchesSingleStream) {
  util::Rng rng(5);
  const BigInt m = BigInt::random_odd_exact_bits(512, rng);
  const BatchVectorMontCtx batch(m);
  const VectorMontCtx single(m);
  const auto xs = random_lanes(m, rng);
  const BigInt exp = BigInt::random_bits(512, rng);
  const auto got = batch.mod_exp(xs, exp);
  for (std::size_t l = 0; l < kB; ++l) {
    EXPECT_EQ(got[l], fixed_window_exp(single, xs[l], exp)) << l;
  }
}

TEST(BatchMont, ExpEdgeExponents) {
  util::Rng rng(6);
  const BigInt m = BigInt::random_odd_exact_bits(256, rng);
  const BatchVectorMontCtx ctx(m);
  const auto xs = random_lanes(m, rng);
  const auto r0 = ctx.mod_exp(xs, BigInt{});
  const auto r1 = ctx.mod_exp(xs, BigInt{1});
  for (std::size_t l = 0; l < kB; ++l) {
    EXPECT_EQ(r0[l], BigInt{1});
    EXPECT_EQ(r1[l], xs[l]);
  }
  EXPECT_THROW(ctx.mod_exp(xs, BigInt{-1}), std::invalid_argument);
}

TEST(BatchMont, RejectsWrongLaneCountOrRange) {
  util::Rng rng(7);
  const BigInt m = BigInt::random_odd_exact_bits(128, rng);
  const BatchVectorMontCtx ctx(m);
  std::vector<BigInt> too_few(3, BigInt{1});
  EXPECT_THROW(ctx.to_mont(too_few), std::invalid_argument);
  auto xs = random_lanes(m, rng);
  xs[5] = m;  // out of range
  EXPECT_THROW(ctx.to_mont(xs), std::invalid_argument);
}

TEST(BatchMont, DifferentDigitWidthsAgree) {
  util::Rng rng(8);
  const BigInt m = BigInt::random_odd_exact_bits(384, rng);
  const auto xs = random_lanes(m, rng);
  const BigInt exp = BigInt::random_bits(100, rng);
  const auto r27 = BatchVectorMontCtx(m, 27).mod_exp(xs, exp);
  const auto r20 = BatchVectorMontCtx(m, 20).mod_exp(xs, exp);
  for (std::size_t l = 0; l < kB; ++l) EXPECT_EQ(r27[l], r20[l]) << l;
}

// ---- Batched radix-52 context -------------------------------------------

TEST(BatchIfmaMont, MulAndSqrMatchOraclePerLane) {
  static_assert(BatchIfmaMontCtx::kBatch == BatchVectorMontCtx::kBatch);
  util::Rng rng(22);
  std::vector<BigInt> moduli = edge_moduli(rng);
  for (std::size_t bits : {128u, 1024u, 2048u}) {
    moduli.push_back(BigInt::random_odd_exact_bits(bits, rng));
  }
  for (const BigInt& m : moduli) {
    const std::size_t bits = m.bit_length();
    const BatchIfmaMontCtx ctx(m);
    const auto xs = edge_lanes(m, rng);
    auto ys = edge_lanes(m, rng);
    std::swap(ys[1], ys[2]);  // also pairs 1 with m-1 and m-1 with 1
    BatchIfmaMontCtx::Rep out, s, p;
    const auto xm = ctx.to_mont(xs);
    ctx.mul(xm, ctx.to_mont(ys), out);
    const auto got = ctx.from_mont(out);
    ctx.sqr(xm, s);
    ctx.mul(xm, xm, p);
    EXPECT_EQ(s, p) << "bits=" << bits << " m=" << m.to_hex();
    const auto got_sqr = ctx.from_mont(s);
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(got[l], (xs[l] * ys[l]).mod(m))
          << "bits=" << bits << " m=" << m.to_hex() << " lane=" << l;
      EXPECT_EQ(got_sqr[l], (xs[l] * xs[l]).mod(m))
          << "bits=" << bits << " m=" << m.to_hex() << " lane=" << l;
    }
  }
}

TEST(BatchIfmaMont, PortableLanesMatchDispatchedLanes) {
  util::Rng rng(23);
  std::vector<BigInt> moduli = edge_moduli(rng);
  moduli.push_back(BigInt::random_odd_exact_bits(768, rng));
  for (const BigInt& m : moduli) {
    const BatchIfmaMontCtx dispatched(m);
    const BatchIfmaMontCtx portable(m, /*force_portable=*/true);
    const auto xm = dispatched.to_mont(edge_lanes(m, rng));
    const auto ym = portable.to_mont(edge_lanes(m, rng));
    // Bit-identical residues, not merely congruent.
    BatchIfmaMontCtx::Rep od, op;
    dispatched.mul(xm, ym, od);
    portable.mul(xm, ym, op);
    EXPECT_EQ(od, op) << "mul bits=" << m.bit_length() << " m=" << m.to_hex();
    dispatched.sqr(xm, od);
    portable.sqr(xm, op);
    EXPECT_EQ(od, op) << "sqr bits=" << m.bit_length() << " m=" << m.to_hex();
  }
}

TEST(BatchIfmaMont, SharedExponentExpMatchesSingleStream) {
  // The batched radix-52 schedule against the single-stream IfmaMontCtx
  // and the KNC-style batch — all three must agree lane-wise.
  util::Rng rng(24);
  std::vector<BigInt> moduli = edge_moduli(rng);
  moduli.push_back(BigInt::random_odd_exact_bits(512, rng));
  for (const BigInt& m : moduli) {
    const BatchIfmaMontCtx batch(m);
    const BatchVectorMontCtx knc(m);
    const IfmaMontCtx single(m);
    const auto xs = edge_lanes(m, rng);
    const BigInt exp = BigInt::random_bits(m.bit_length(), rng);
    const auto got = batch.mod_exp(xs, exp);
    const auto knc_got = knc.mod_exp(xs, exp);
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(got[l], fixed_window_exp(single, xs[l], exp))
          << "bits=" << m.bit_length() << " m=" << m.to_hex() << " lane=" << l;
      EXPECT_EQ(got[l], knc_got[l])
          << "bits=" << m.bit_length() << " m=" << m.to_hex() << " lane=" << l;
    }
  }
}

}  // namespace
}  // namespace phissl::mont

namespace phissl::rsa {
namespace {

using bigint::BigInt;
constexpr std::size_t kB = BatchEngine::kBatch;

TEST(BatchEngine, MatchesScalarEnginePerLane) {
  const PrivateKey& key = test_key(1024);
  const BatchEngine batch(key);
  const Engine scalar(key, EngineOptions{});
  util::Rng rng(9);
  std::array<BigInt, kB> msgs;
  for (auto& m : msgs) m = BigInt::random_below(key.pub.n, rng);
  const auto sigs = batch.private_op(msgs);
  for (std::size_t l = 0; l < kB; ++l) {
    EXPECT_EQ(sigs[l], scalar.private_op(msgs[l])) << l;
    EXPECT_EQ(scalar.public_op(sigs[l]), msgs[l]) << l;
  }
}

TEST(BatchEngine, BackendsAgreePerLane) {
  // The ifma52 batched contexts (vpmadd52 and portable) and the KNC-style
  // vector contexts must produce identical CRT results lane-for-lane, all
  // equal to the scalar engine.
  const PrivateKey& key = test_key(1024);
  const Engine scalar(key, EngineOptions{});
  util::Rng rng(25);
  std::array<BigInt, kB> msgs;
  for (auto& m : msgs) m = BigInt::random_below(key.pub.n, rng);
  std::array<BigInt, kB> reference;
  for (std::size_t l = 0; l < kB; ++l) reference[l] = scalar.private_op(msgs[l]);
  for (const Backend b :
       {Backend::kKncVec, Backend::kIfma52, Backend::kIfma52Portable}) {
    const BatchEngine batch(key, b);
    const auto sigs = batch.private_op(msgs);
    for (std::size_t l = 0; l < kB; ++l) {
      EXPECT_EQ(sigs[l], reference[l]) << to_string(b) << " lane " << l;
    }
  }
}

TEST(BatchEngine, ReportsResolvedBackend) {
  const PrivateKey& key = test_key(512);
  // The requested backend is what runs. The scalar backends have no
  // batched kernel (batching IS the vectorization), so they are rejected
  // rather than silently measured on another backend.
  EXPECT_EQ(BatchEngine(key).backend(), Backend::kKncVec);
  for (const Backend b :
       {Backend::kKncVec, Backend::kIfma52, Backend::kIfma52Portable}) {
    EXPECT_EQ(BatchEngine(key, b).backend(), b) << to_string(b);
  }
  for (const Backend b : {Backend::kScalar32, Backend::kScalar64}) {
    EXPECT_THROW((void)BatchEngine(key, b), std::invalid_argument)
        << to_string(b);
  }
}

TEST(BatchEngine, RejectsBadInputs) {
  const PrivateKey& key = test_key(512);
  const BatchEngine batch(key);
  std::vector<BigInt> too_few(2, BigInt{1});
  EXPECT_THROW(batch.private_op(too_few), std::invalid_argument);
  std::array<BigInt, kB> msgs{};
  msgs[3] = key.pub.n;
  EXPECT_THROW(batch.private_op(msgs), std::invalid_argument);
}

TEST(BatchEngine, ZeroAndSmallLanes) {
  const PrivateKey& key = test_key(512);
  const BatchEngine batch(key);
  std::array<BigInt, kB> msgs{};
  msgs[1] = BigInt{1};
  msgs[2] = BigInt{2};
  const auto sigs = batch.private_op(msgs);
  const Engine scalar(key, EngineOptions{});
  for (std::size_t l = 0; l < kB; ++l) {
    EXPECT_EQ(scalar.public_op(sigs[l]), msgs[l]) << l;
  }
}

}  // namespace
}  // namespace phissl::rsa
