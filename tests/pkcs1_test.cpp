// PKCS#1 v1.5 signature and encryption tests, including failure injection:
// corrupted signatures, truncated blocks, and malformed padding must all be
// rejected.
#include <gtest/gtest.h>

#include <string_view>

#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "util/random.hpp"

namespace phissl::rsa {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class Pkcs1Test : public ::testing::Test {
 protected:
  const PrivateKey& key_ = test_key(1024);
  Engine engine_{key_, EngineOptions{}};
  util::Rng rng_{2024};
};

TEST_F(Pkcs1Test, EmsaEncodingShape) {
  const auto em = emsa_pkcs1_v15_sha256(bytes_of("hello"), 128);
  ASSERT_EQ(em.size(), 128u);
  EXPECT_EQ(em[0], 0x00);
  EXPECT_EQ(em[1], 0x01);
  // PS is 0xff up to the 0x00 separator.
  std::size_t i = 2;
  while (i < em.size() && em[i] == 0xff) ++i;
  EXPECT_EQ(em[i], 0x00);
  EXPECT_GE(i - 2, 8u);                  // at least 8 bytes of PS
  EXPECT_EQ(em.size() - (i + 1), 51u);   // DigestInfo(19) + hash(32)
  EXPECT_THROW(emsa_pkcs1_v15_sha256(bytes_of("x"), 32), std::length_error);
}

TEST_F(Pkcs1Test, SignVerifyRoundTrip) {
  const auto sig = sign_sha256(engine_, bytes_of("attack at dawn"));
  EXPECT_EQ(sig.size(), engine_.pub().byte_size());
  EXPECT_TRUE(verify_sha256(engine_, bytes_of("attack at dawn"), sig));
}

TEST_F(Pkcs1Test, VerifyRejectsWrongMessage) {
  const auto sig = sign_sha256(engine_, bytes_of("attack at dawn"));
  EXPECT_FALSE(verify_sha256(engine_, bytes_of("attack at dusk"), sig));
  EXPECT_FALSE(verify_sha256(engine_, bytes_of(""), sig));
}

TEST_F(Pkcs1Test, VerifyRejectsCorruptedSignature) {
  auto sig = sign_sha256(engine_, bytes_of("msg"));
  for (std::size_t pos : {std::size_t{0}, sig.size() / 2, sig.size() - 1}) {
    auto bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(verify_sha256(engine_, bytes_of("msg"), bad)) << pos;
  }
}

TEST_F(Pkcs1Test, VerifyRejectsWrongLengthOrRange) {
  auto sig = sign_sha256(engine_, bytes_of("msg"));
  auto truncated = sig;
  truncated.pop_back();
  EXPECT_FALSE(verify_sha256(engine_, bytes_of("msg"), truncated));
  auto extended = sig;
  extended.push_back(0);
  EXPECT_FALSE(verify_sha256(engine_, bytes_of("msg"), extended));
  // Signature value >= n must be rejected before any math.
  const auto n_bytes = engine_.pub().n.to_bytes_be(engine_.pub().byte_size());
  EXPECT_FALSE(verify_sha256(engine_, bytes_of("msg"), n_bytes));
}

TEST_F(Pkcs1Test, VerifyRejectsSignatureFromOtherKey) {
  const Engine other(test_key(2048), EngineOptions{});
  const auto sig = sign_sha256(other, bytes_of("msg"));
  EXPECT_FALSE(verify_sha256(other, bytes_of("msg2"), sig));
  // Signature sized for the wrong key is rejected by the length check.
  EXPECT_FALSE(verify_sha256(engine_, bytes_of("msg"), sig));
}

TEST_F(Pkcs1Test, EncryptDecryptRoundTrip) {
  for (std::size_t len : {0u, 1u, 16u, 64u, 117u}) {  // 117 = 128 - 11 (max)
    std::vector<std::uint8_t> msg = rng_.bytes(len);
    const auto ct = encrypt_pkcs1(engine_, msg, rng_);
    EXPECT_EQ(ct.size(), engine_.pub().byte_size());
    const auto pt = decrypt_pkcs1(engine_, ct);
    ASSERT_TRUE(pt.has_value()) << len;
    EXPECT_EQ(*pt, msg) << len;
  }
}

TEST_F(Pkcs1Test, EncryptRejectsOverlongMessage) {
  const auto msg = rng_.bytes(engine_.pub().byte_size() - 10);
  EXPECT_THROW(encrypt_pkcs1(engine_, msg, rng_), std::length_error);
}

TEST_F(Pkcs1Test, DecryptRejectsCorruptedCiphertext) {
  const auto msg = rng_.bytes(32);
  auto ct = encrypt_pkcs1(engine_, msg, rng_);
  ct[5] ^= 0xff;
  // Overwhelmingly likely to break the padding structure.
  const auto pt = decrypt_pkcs1(engine_, ct);
  if (pt.has_value()) {
    EXPECT_NE(*pt, msg);  // if padding survived by chance, payload differs
  }
}

TEST_F(Pkcs1Test, DecryptRejectsWrongLength) {
  const auto msg = rng_.bytes(16);
  auto ct = encrypt_pkcs1(engine_, msg, rng_);
  ct.pop_back();
  EXPECT_FALSE(decrypt_pkcs1(engine_, ct).has_value());
}

TEST_F(Pkcs1Test, DecryptRejectsForgedPaddingTypes) {
  // Build blocks with wrong leading bytes / missing separator / short PS
  // and run them through the private op by encrypting them "raw".
  const std::size_t k = engine_.pub().byte_size();
  const auto forge = [&](std::vector<std::uint8_t> em) {
    const bigint::BigInt m = bigint::BigInt::from_bytes_be(em);
    const auto ct = engine_.public_op(m).to_bytes_be(k);
    // decrypt applies private_op, undoing public_op: it sees exactly em.
    return decrypt_pkcs1(engine_, ct);
  };
  std::vector<std::uint8_t> em(k, 0xaa);
  em[0] = 0x00;
  em[1] = 0x01;  // wrong block type (signature, not encryption)
  EXPECT_FALSE(forge(em).has_value());
  em[1] = 0x02;
  EXPECT_FALSE(forge(em).has_value());  // no 0x00 separator at all
  // Separator too early: PS shorter than 8 bytes.
  em.assign(k, 0xaa);
  em[0] = 0x00;
  em[1] = 0x02;
  em[5] = 0x00;
  EXPECT_FALSE(forge(em).has_value());
  // Valid minimal: PS of exactly 8 then separator.
  em.assign(k, 0xaa);
  em[0] = 0x00;
  em[1] = 0x02;
  em[10] = 0x00;
  const auto ok = forge(em);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->size(), k - 11);
}

TEST_F(Pkcs1Test, AllEnginesProduceSameSignature) {
  // Deterministic padding => identical signatures across kernels.
  std::vector<std::vector<std::uint8_t>> sigs;
  for (const Backend k : kAllBackends) {
    EngineOptions opts;
    opts.kernel = k;
    const Engine engine(key_, opts);
    sigs.push_back(sign_sha256(engine, bytes_of("deterministic")));
  }
  for (std::size_t i = 1; i < sigs.size(); ++i) {
    EXPECT_EQ(sigs[i], sigs[0]) << to_string(kAllBackends[i]);
  }
}

}  // namespace
}  // namespace phissl::rsa
