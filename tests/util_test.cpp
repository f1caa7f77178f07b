// Unit tests for src/util: PRNG determinism, hex codec, stats, timing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace phissl::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000003ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, FillBytesLengths) {
  Rng rng(3);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 64u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

TEST(Rng, BytesLookUniformish) {
  Rng rng(11);
  auto v = rng.bytes(4096);
  std::vector<int> counts(256, 0);
  for (auto b : v) counts[b]++;
  // Each byte value expected ~16 times; allow a generous band.
  for (int c : counts) EXPECT_LT(c, 64);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(hex_encode(data), "0001abff10");
  EXPECT_EQ(hex_decode("0001abff10"), data);
  EXPECT_EQ(hex_decode("0x0001ABFF10"), data);
}

TEST(Hex, OddLengthGetsLeadingNibble) {
  const auto v = hex_decode("abc");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0x0a);
  EXPECT_EQ(v[1], 0xbc);
}

TEST(Hex, RejectsBadDigit) {
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);
  EXPECT_THROW(hex_decode("12g4"), std::invalid_argument);
}

TEST(Hex, EmptyInput) {
  EXPECT_TRUE(hex_decode("").empty());
  EXPECT_EQ(hex_encode(std::vector<std::uint8_t>{}), "");
}

TEST(Stats, BasicSummary) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.p95, 5.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

TEST(Stats, PercentilesNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  const Summary s = summarize(std::move(samples));
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

TEST(Stats, EvenCountMedian) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(Stats, NonFiniteSamplesAreDropped) {
  // A NaN or infinity in the sample set (a poisoned timer, a division by
  // a zero duration) must not leak into any aggregate: summarize drops
  // non-finite values and reports only the finite subset.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize({2.0, nan, 4.0, inf, 6.0, -inf});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  EXPECT_TRUE(std::isfinite(s.stddev));
  EXPECT_DOUBLE_EQ(s.p99, 6.0);

  // All-non-finite input behaves exactly like an empty sample.
  const Summary none = summarize({nan, inf, -inf});
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_DOUBLE_EQ(none.p99, 0.0);
}

TEST(Timing, StopwatchMonotone) {
  Stopwatch sw;
  const auto a = sw.elapsed_ns();
  const auto b = sw.elapsed_ns();
  EXPECT_LE(a, b);
  sw.reset();
  EXPECT_GE(sw.elapsed_s(), 0.0);
}

}  // namespace
}  // namespace phissl::util
