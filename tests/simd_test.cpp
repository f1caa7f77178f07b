// Differential tests for VecU32x16: every operation is checked lane-by-lane
// against independently computed scalar semantics on randomized inputs,
// so the compiled backend (AVX-512 or portable) is proven equivalent to the
// written-down contract.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "simd/vec.hpp"
#include "util/random.hpp"

namespace phissl::simd {
namespace {

using Arr = std::array<std::uint32_t, VecU32x16::kLanes>;

Arr random_arr(util::Rng& rng) {
  Arr a;
  for (auto& x : a) x = rng.next_u32();
  return a;
}

VecU32x16 from_arr(const Arr& a) { return VecU32x16::load(a.data()); }

class SimdDifferential : public ::testing::Test {
 protected:
  util::Rng rng_{123};
};

TEST_F(SimdDifferential, BackendNameIsKnown) {
  const std::string name = backend_name();
  EXPECT_TRUE(name == "avx512" || name == "scalar") << name;
}

TEST_F(SimdDifferential, LoadStoreRoundTrip) {
  for (int t = 0; t < 10; ++t) {
    const Arr a = random_arr(rng_);
    Arr out{};
    from_arr(a).store(out.data());
    EXPECT_EQ(out, a);
    EXPECT_EQ(from_arr(a).to_array(), a);
  }
}

TEST_F(SimdDifferential, BroadcastAndZero) {
  const VecU32x16 b = VecU32x16::broadcast(0xdeadbeef);
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    EXPECT_EQ(b.lane(i), 0xdeadbeefu);
    EXPECT_EQ(VecU32x16::zero().lane(i), 0u);
  }
}

TEST_F(SimdDifferential, AddSubWrap) {
  for (int t = 0; t < 50; ++t) {
    const Arr a = random_arr(rng_), b = random_arr(rng_);
    const VecU32x16 s = add(from_arr(a), from_arr(b));
    const VecU32x16 d = sub(from_arr(a), from_arr(b));
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      EXPECT_EQ(s.lane(i), static_cast<std::uint32_t>(a[i] + b[i]));
      EXPECT_EQ(d.lane(i), static_cast<std::uint32_t>(a[i] - b[i]));
    }
  }
}

TEST_F(SimdDifferential, MulLoHi) {
  for (int t = 0; t < 50; ++t) {
    const Arr a = random_arr(rng_), b = random_arr(rng_);
    const VecU32x16 lo = mul_lo(from_arr(a), from_arr(b));
    const VecU32x16 hi = mul_hi(from_arr(a), from_arr(b));
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      const std::uint64_t p = static_cast<std::uint64_t>(a[i]) * b[i];
      EXPECT_EQ(lo.lane(i), static_cast<std::uint32_t>(p));
      EXPECT_EQ(hi.lane(i), static_cast<std::uint32_t>(p >> 32));
    }
  }
}

TEST_F(SimdDifferential, MulHiEdgeValues) {
  // Extremes that expose bad even/odd interleaving in the AVX-512 emulation.
  const Arr a = {0xffffffff, 0xffffffff, 0, 1, 0x80000000, 0x7fffffff,
                 2,          3,          0xfffffffe, 0x10000, 0xffff, 42,
                 0xdeadbeef, 0xcafef00d, 0x12345678, 0x9abcdef0};
  const Arr b = {0xffffffff, 1, 0xffffffff, 0xffffffff, 0x80000000, 2,
                 0x80000001, 0xaaaaaaaa, 0xfffffffe, 0x10000, 0x10001, 99,
                 0xfeedface, 0x0badf00d, 0x87654321, 0x0fedcba9};
  const VecU32x16 hi = mul_hi(from_arr(a), from_arr(b));
  const VecU32x16 lo = mul_lo(from_arr(a), from_arr(b));
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    const std::uint64_t p = static_cast<std::uint64_t>(a[i]) * b[i];
    EXPECT_EQ(hi.lane(i), static_cast<std::uint32_t>(p >> 32)) << i;
    EXPECT_EQ(lo.lane(i), static_cast<std::uint32_t>(p)) << i;
  }
}

TEST_F(SimdDifferential, Logic) {
  for (int t = 0; t < 20; ++t) {
    const Arr a = random_arr(rng_), b = random_arr(rng_);
    const VecU32x16 va = from_arr(a), vb = from_arr(b);
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      EXPECT_EQ(bit_and(va, vb).lane(i), a[i] & b[i]);
      EXPECT_EQ(bit_or(va, vb).lane(i), a[i] | b[i]);
    }
  }
}

TEST_F(SimdDifferential, Shifts) {
  const Arr a = random_arr(rng_);
  for (unsigned s : {0u, 1u, 5u, 16u, 29u, 31u}) {
    const VecU32x16 r = shr(from_arr(a), s);
    const VecU32x16 l = shl(from_arr(a), s);
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      EXPECT_EQ(r.lane(i), a[i] >> s);
      EXPECT_EQ(l.lane(i), a[i] << s);
    }
  }
}

TEST_F(SimdDifferential, Compares) {
  for (int t = 0; t < 50; ++t) {
    Arr a = random_arr(rng_), b = random_arr(rng_);
    // Force an equal lane and some boundary lanes.
    a[3] = b[3];
    a[7] = 0;
    b[7] = 0xffffffff;
    a[11] = 0xffffffff;
    b[11] = 0;
    const Mask16 lt = cmp_lt_u32(from_arr(a), from_arr(b));
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      EXPECT_EQ((lt >> i) & 1, a[i] < b[i] ? 1 : 0) << i;
    }
  }
}

TEST_F(SimdDifferential, SelectAndMaskedAdd) {
  for (int t = 0; t < 20; ++t) {
    const Arr a = random_arr(rng_), b = random_arr(rng_);
    const Mask16 m = static_cast<Mask16>(rng_.next_u32());
    const VecU32x16 sel = select(m, from_arr(a), from_arr(b));
    const VecU32x16 madd = masked_add(m, from_arr(a), from_arr(b));
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      const bool on = (m >> i) & 1;
      EXPECT_EQ(sel.lane(i), on ? a[i] : b[i]);
      EXPECT_EQ(madd.lane(i),
                on ? static_cast<std::uint32_t>(a[i] + b[i]) : a[i]);
    }
  }
}

TEST_F(SimdDifferential, AddWideProduct) {
  // The add-with-carry idiom: (acc_lo, acc_hi) columns accumulate exact
  // 64-bit values across many random product additions.
  for (int t = 0; t < 20; ++t) {
    std::array<std::uint64_t, VecU32x16::kLanes> expected{};
    VecU32x16 acc_lo = VecU32x16::zero(), acc_hi = VecU32x16::zero();
    for (int step = 0; step < 100; ++step) {
      // 27-bit digits as the Montgomery kernel uses.
      Arr x, y;
      for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
        x[i] = rng_.next_u32() & ((1u << 27) - 1);
        y[i] = rng_.next_u32() & ((1u << 27) - 1);
      }
      const VecU32x16 vx = from_arr(x), vy = from_arr(y);
      add_wide_product(acc_lo, acc_hi, mul_lo(vx, vy), mul_hi(vx, vy));
      for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
        expected[i] += static_cast<std::uint64_t>(x[i]) * y[i];
      }
    }
    for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
      const std::uint64_t got =
          acc_lo.lane(i) | (static_cast<std::uint64_t>(acc_hi.lane(i)) << 32);
      EXPECT_EQ(got, expected[i]) << "lane " << i;
    }
  }
}

TEST_F(SimdDifferential, AddWideProductCarrySaturation) {
  // Deliberately drive the low word past wraparound on every step.
  VecU32x16 acc_lo = VecU32x16::broadcast(0xffffffff);
  VecU32x16 acc_hi = VecU32x16::zero();
  std::uint64_t expected = 0xffffffffull;
  for (int step = 0; step < 8; ++step) {
    const VecU32x16 p_lo = VecU32x16::broadcast(0xffffffff);
    const VecU32x16 p_hi = VecU32x16::broadcast(0);
    add_wide_product(acc_lo, acc_hi, p_lo, p_hi);
    expected += 0xffffffffull;
  }
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    const std::uint64_t got =
        acc_lo.lane(i) | (static_cast<std::uint64_t>(acc_hi.lane(i)) << 32);
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace phissl::simd
