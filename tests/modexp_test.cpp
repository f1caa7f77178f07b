// Tests for fixed-window and sliding-window modular exponentiation across
// all three Montgomery contexts, against the BigInt square-and-multiply
// oracle and against each other.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bigint/bigint.hpp"
#include "mont/modexp.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"
#include "util/random.hpp"

namespace phissl::mont {
namespace {

using bigint::BigInt;

TEST(ChooseWindow, MonotoneAndBounded) {
  int prev = 1;
  for (std::size_t bits = 1; bits <= 8192; bits *= 2) {
    const int w = choose_window(bits);
    EXPECT_GE(w, prev);
    EXPECT_GE(w, 1);
    EXPECT_LE(w, 7);
    prev = w;
  }
  EXPECT_EQ(choose_window(1024), 5);
  EXPECT_EQ(choose_window(2048), 6);
}

TEST(CtTableSelect, SelectsEveryIndex) {
  std::vector<std::vector<std::uint32_t>> table;
  for (std::uint32_t e = 0; e < 32; ++e) {
    table.push_back({e * 3 + 1, e * 7 + 2, 0xffffffffu - e});
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t idx = 0; idx < 32; ++idx) {
    ct_table_select(table, idx, out);
    EXPECT_EQ(out, table[idx]) << idx;
  }
}

TEST(CtTableSelect, WorksWithU64Words) {
  std::vector<std::vector<std::uint64_t>> table;
  for (std::uint64_t e = 0; e < 8; ++e) {
    table.push_back({e << 40, ~e});
  }
  std::vector<std::uint64_t> out;
  for (std::uint32_t idx = 0; idx < 8; ++idx) {
    ct_table_select(table, idx, out);
    EXPECT_EQ(out, table[idx]) << idx;
  }
}

TEST(CtTableSelect, RegisterGatherReturnsEveryEntry) {
  // Residues of 64-bit words take the register gather (on an IFMA host;
  // the generic scan elsewhere): for windows w = 1..6 and residues of
  // 8..48 words, every index must return exactly its entry, alone and as
  // either side of a split gather, and agree with the generic template.
  util::Rng rng(0x6a7e);
  for (std::size_t w = 1; w <= 6; ++w) {
    const std::size_t count = std::size_t{1} << w;
    for (std::size_t words = 8; words <= 48; ++words) {
      std::vector<std::vector<std::uint64_t>> table(count);
      for (auto& entry : table) {
        entry.resize(words);
        for (auto& word : entry) word = rng.next_u64();
      }
      const std::size_t split = words / 2;
      std::vector<std::uint64_t> out, generic;
      for (std::uint32_t idx = 0; idx < count; ++idx) {
        ct_table_select(table, idx, out);
        ASSERT_EQ(out, table[idx]) << "w=" << w << " words=" << words;
        const auto other = static_cast<std::uint32_t>(count - 1 - idx);
        ct_table_select_split(table.data(), count, idx, other, split, out);
        ct_table_select_split<std::vector<std::uint64_t>, std::uint32_t>(
            table.data(), count, idx, other, split, generic);
        ASSERT_EQ(out, generic) << "w=" << w << " words=" << words;
        for (std::size_t k = 0; k < words; ++k) {
          ASSERT_EQ(out[k], table[k < split ? idx : other][k])
              << "w=" << w << " words=" << words << " word " << k;
        }
      }
    }
  }
}

template <typename Ctx>
class ModExpTyped : public ::testing::Test {};

using CtxTypes = ::testing::Types<MontCtx32, MontCtx64, VectorMontCtx>;
TYPED_TEST_SUITE(ModExpTyped, CtxTypes);

TYPED_TEST(ModExpTyped, FixedWindowMatchesOracle) {
  util::Rng rng(21);
  for (std::size_t bits : {64u, 256u, 1024u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const TypeParam ctx(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_below(m, rng);
      const BigInt exp = BigInt::random_bits(bits, rng);
      EXPECT_EQ(fixed_window_exp(ctx, base, exp), base.mod_pow(exp, m))
          << "bits=" << bits;
    }
  }
}

TYPED_TEST(ModExpTyped, SlidingWindowMatchesOracle) {
  util::Rng rng(22);
  for (std::size_t bits : {64u, 256u, 1024u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const TypeParam ctx(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_below(m, rng);
      const BigInt exp = BigInt::random_bits(bits, rng);
      EXPECT_EQ(sliding_window_exp(ctx, base, exp), base.mod_pow(exp, m))
          << "bits=" << bits;
    }
  }
}

TYPED_TEST(ModExpTyped, AllWindowWidthsAgree) {
  util::Rng rng(23);
  const BigInt m = BigInt::random_odd_exact_bits(384, rng);
  const TypeParam ctx(m);
  const BigInt base = BigInt::random_below(m, rng);
  const BigInt exp = BigInt::random_bits(384, rng);
  const BigInt expected = base.mod_pow(exp, m);
  for (int w = 1; w <= 8; ++w) {
    EXPECT_EQ(fixed_window_exp(ctx, base, exp, w), expected) << "w=" << w;
    EXPECT_EQ(sliding_window_exp(ctx, base, exp, w), expected) << "w=" << w;
  }
}

TYPED_TEST(ModExpTyped, EdgeExponents) {
  util::Rng rng(24);
  const BigInt m = BigInt::random_odd_exact_bits(256, rng);
  const TypeParam ctx(m);
  const BigInt base = BigInt::random_below(m, rng);
  // exp = 0, 1, 2, 2^k, 2^k - 1 (all-ones) exercise window boundaries.
  EXPECT_EQ(fixed_window_exp(ctx, base, BigInt{}), BigInt{1});
  EXPECT_EQ(sliding_window_exp(ctx, base, BigInt{}), BigInt{1});
  EXPECT_EQ(fixed_window_exp(ctx, base, BigInt{1}), base);
  EXPECT_EQ(sliding_window_exp(ctx, base, BigInt{1}), base);
  EXPECT_EQ(fixed_window_exp(ctx, base, BigInt{2}), (base * base).mod(m));
  for (std::size_t k : {5u, 64u, 65u, 160u}) {
    const BigInt p2 = BigInt{1} << k;
    const BigInt ones = p2 - BigInt{1};
    EXPECT_EQ(fixed_window_exp(ctx, base, p2), base.mod_pow(p2, m)) << k;
    EXPECT_EQ(fixed_window_exp(ctx, base, ones), base.mod_pow(ones, m)) << k;
    EXPECT_EQ(sliding_window_exp(ctx, base, ones), base.mod_pow(ones, m)) << k;
  }
}

TYPED_TEST(ModExpTyped, EdgeBases) {
  util::Rng rng(25);
  const BigInt m = BigInt::random_odd_exact_bits(256, rng);
  const TypeParam ctx(m);
  const BigInt exp = BigInt::random_bits(256, rng);
  EXPECT_EQ(fixed_window_exp(ctx, BigInt{}, exp), BigInt{});   // 0^e
  EXPECT_EQ(fixed_window_exp(ctx, BigInt{1}, exp), BigInt{1}); // 1^e
  const BigInt top = m - BigInt{1};  // (m-1)^e = ±1 mod m
  EXPECT_EQ(fixed_window_exp(ctx, top, exp),
            exp.is_even() ? BigInt{1} : top);
}

TYPED_TEST(ModExpTyped, WorkspaceFormMatchesAllocatingForm) {
  // The ExpWorkspace-threaded overloads must agree with the value-returning
  // allocating forms, and one workspace reused across bases, exponents,
  // window widths and schedules must not corrupt state between calls.
  util::Rng rng(29);
  for (std::size_t bits : {128u, 512u, 1024u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const TypeParam ctx(m);
    ExpWorkspace<TypeParam> ws;  // deliberately shared across iterations
    BigInt out;
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_below(m, rng);
      const BigInt exp = BigInt::random_bits(bits, rng);
      const int w = 1 + i;  // alternate window widths against one table
      fixed_window_exp(ctx, base, exp, out, ws, w);
      EXPECT_EQ(out, fixed_window_exp(ctx, base, exp, w))
          << "bits=" << bits << " w=" << w;
      sliding_window_exp(ctx, base, exp, out, ws, w);
      EXPECT_EQ(out, sliding_window_exp(ctx, base, exp, w))
          << "bits=" << bits << " w=" << w;
    }
  }
}

TYPED_TEST(ModExpTyped, WorkspaceReuseAcrossSizesIsStable) {
  // A workspace warmed at one modulus size must stay correct when reused
  // at other sizes (table entries and scratch are resized per call, never
  // assumed clean).
  util::Rng rng(30);
  ExpWorkspace<TypeParam> ws;
  for (std::size_t bits : {1024u, 128u, 512u, 1024u}) {
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const TypeParam ctx(m);
    const BigInt base = BigInt::random_below(m, rng);
    const BigInt exp = BigInt::random_bits(bits, rng);
    BigInt out;
    fixed_window_exp(ctx, base, exp, out, ws);
    EXPECT_EQ(out, base.mod_pow(exp, m)) << "bits=" << bits;
  }
}

TYPED_TEST(ModExpTyped, RejectsBadArguments) {
  util::Rng rng(26);
  const BigInt m = BigInt::random_odd_exact_bits(128, rng);
  const TypeParam ctx(m);
  const BigInt base = BigInt::random_below(m, rng);
  EXPECT_THROW(fixed_window_exp(ctx, base, BigInt{-3}), std::invalid_argument);
  EXPECT_THROW(fixed_window_exp(ctx, base, BigInt{3}, 11),
               std::invalid_argument);
  EXPECT_THROW(sliding_window_exp(ctx, base, BigInt{-3}),
               std::invalid_argument);
  EXPECT_THROW(fixed_window_exp(ctx, m, BigInt{3}), std::invalid_argument);
}

TEST(ModExpCross, AllContextsAgreeAt2048) {
  util::Rng rng(27);
  const BigInt m = BigInt::random_odd_exact_bits(2048, rng);
  const MontCtx32 c32(m);
  const MontCtx64 c64(m);
  const VectorMontCtx cv(m);
  const BigInt base = BigInt::random_below(m, rng);
  const BigInt exp = BigInt::random_bits(2048, rng);
  const BigInt r64 = fixed_window_exp(c64, base, exp);
  EXPECT_EQ(fixed_window_exp(c32, base, exp), r64);
  EXPECT_EQ(fixed_window_exp(cv, base, exp), r64);
  EXPECT_EQ(sliding_window_exp(cv, base, exp), r64);
}

TEST(ModExpCross, FermatWithVectorCtx) {
  util::Rng rng(28);
  const BigInt p = BigInt::random_prime(512, rng, 24);
  const VectorMontCtx ctx(p);
  for (int i = 0; i < 3; ++i) {
    const BigInt a = BigInt::random_below(p - BigInt{1}, rng) + BigInt{1};
    EXPECT_EQ(fixed_window_exp(ctx, a, p - BigInt{1}), BigInt{1});
  }
}

}  // namespace
}  // namespace phissl::mont
