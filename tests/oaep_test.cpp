// RSAES-OAEP tests: MGF1 known answers, round-trips, size limits, label
// binding, and failure injection.
#include <gtest/gtest.h>

#include <string>

#include "rsa/key.hpp"
#include "rsa/oaep.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"

namespace phissl::rsa {
namespace {

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Mgf1, LengthsAndDeterminism) {
  const auto seed = util::hex_decode("0123456789abcdef");
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 100u}) {
    const auto mask = mgf1_sha256(seed, len);
    EXPECT_EQ(mask.size(), len);
    EXPECT_EQ(mask, mgf1_sha256(seed, len));
  }
  // Prefix property (counter-based construction).
  const auto short_mask = mgf1_sha256(seed, 10);
  const auto long_mask = mgf1_sha256(seed, 64);
  EXPECT_TRUE(
      std::equal(short_mask.begin(), short_mask.end(), long_mask.begin()));
  // Different seeds must diverge.
  EXPECT_NE(mgf1_sha256(seed, 32), mgf1_sha256(util::hex_decode("00"), 32));
}

class OaepTest : public ::testing::Test {
 protected:
  const PrivateKey& key_ = test_key(1024);
  Engine engine_{key_, EngineOptions{}};
  util::Rng rng_{555};
};

TEST_F(OaepTest, RoundTripVariousSizes) {
  // k=128, SHA-256: max message = 128 - 66 = 62 bytes.
  for (std::size_t len : {0u, 1u, 16u, 47u, 62u}) {
    const auto msg = rng_.bytes(len);
    const auto ct = encrypt_oaep(engine_, msg, rng_);
    EXPECT_EQ(ct.size(), engine_.pub().byte_size());
    const auto pt = decrypt_oaep(engine_, ct);
    ASSERT_TRUE(pt.has_value()) << len;
    EXPECT_EQ(*pt, msg) << len;
  }
}

TEST_F(OaepTest, RejectsOverlongMessage) {
  const auto msg = rng_.bytes(63);
  EXPECT_THROW(encrypt_oaep(engine_, msg, rng_), std::length_error);
}

TEST_F(OaepTest, RandomizedEncryption) {
  const auto msg = rng_.bytes(16);
  const auto ct1 = encrypt_oaep(engine_, msg, rng_);
  const auto ct2 = encrypt_oaep(engine_, msg, rng_);
  EXPECT_NE(ct1, ct2);  // fresh seed every time
  EXPECT_EQ(*decrypt_oaep(engine_, ct1), *decrypt_oaep(engine_, ct2));
}

TEST_F(OaepTest, LabelBinding) {
  const auto msg = rng_.bytes(16);
  const auto ct = encrypt_oaep(engine_, msg, rng_, bytes_of("label-A"));
  EXPECT_TRUE(decrypt_oaep(engine_, ct, bytes_of("label-A")).has_value());
  EXPECT_FALSE(decrypt_oaep(engine_, ct, bytes_of("label-B")).has_value());
  EXPECT_FALSE(decrypt_oaep(engine_, ct).has_value());  // empty label
}

TEST_F(OaepTest, CorruptionRejected) {
  const auto msg = rng_.bytes(24);
  auto ct = encrypt_oaep(engine_, msg, rng_);
  for (std::size_t pos : {std::size_t{0}, ct.size() / 2, ct.size() - 1}) {
    auto bad = ct;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(decrypt_oaep(engine_, bad).has_value()) << pos;
  }
}

TEST_F(OaepTest, WrongLengthRejected) {
  const auto msg = rng_.bytes(8);
  auto ct = encrypt_oaep(engine_, msg, rng_);
  ct.pop_back();
  EXPECT_FALSE(decrypt_oaep(engine_, ct).has_value());
}

TEST_F(OaepTest, WorksWithAllKernels) {
  const auto msg = rng_.bytes(32);
  for (const Backend k : kAllBackends) {
    EngineOptions opts;
    opts.kernel = k;
    const Engine engine(key_, opts);
    const auto ct = encrypt_oaep(engine, msg, rng_);
    const auto pt = decrypt_oaep(engine, ct);
    ASSERT_TRUE(pt.has_value());
    EXPECT_EQ(*pt, msg);
  }
}

TEST_F(OaepTest, TooSmallModulusRejected) {
  // 512-bit key: k = 64 < 2*32 + 2, OAEP-SHA256 cannot fit at all.
  const Engine small(test_key(512), EngineOptions{});
  EXPECT_THROW(encrypt_oaep(small, rng_.bytes(1), rng_), std::length_error);
}

}  // namespace
}  // namespace phissl::rsa
