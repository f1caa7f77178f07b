// DSA tests: parameter generation, sign/verify round trip across kernels,
// tampering and range rejection.
#include <gtest/gtest.h>

#include <string_view>

#include "dh/dsa.hpp"
#include "util/random.hpp"

namespace phissl::dsa {
namespace {

using bigint::BigInt;

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class DsaTest : public ::testing::Test {
 protected:
  static const Params& shared_params() {
    static const Params params = [] {
      util::Rng rng(404);
      return generate_params(512, 160, rng);
    }();
    return params;
  }

  util::Rng rng_{405};
};

TEST_F(DsaTest, GeneratedParametersWellFormed) {
  const Params& p = shared_params();
  EXPECT_EQ(p.p.bit_length(), 512u);
  EXPECT_EQ(p.q.bit_length(), 160u);
  EXPECT_TRUE(((p.p - BigInt{1}) % p.q).is_zero());
  // g has order q: g^q == 1, g != 1.
  EXPECT_FALSE(p.g.is_one());
  EXPECT_EQ(p.g.mod_pow(p.q, p.p), BigInt{1});
}

TEST_F(DsaTest, SignVerifyRoundTrip) {
  const Dsa dsa(shared_params());
  const KeyPair kp = dsa.generate_keypair(rng_);
  const Signature sig = dsa.sign(bytes_of("hello dsa"), kp.x, rng_);
  EXPECT_TRUE(dsa.verify(bytes_of("hello dsa"), sig, kp.y));
  EXPECT_FALSE(dsa.verify(bytes_of("hello dsb"), sig, kp.y));
}

TEST_F(DsaTest, AllKernelsInteroperate) {
  // Signature produced with one kernel verifies under any other.
  const KeyPair kp = Dsa(shared_params()).generate_keypair(rng_);
  for (const rsa::Backend ks : rsa::kAllBackends) {
    const Dsa signer(shared_params(), ks);
    const Signature sig = signer.sign(bytes_of("interop"), kp.x, rng_);
    for (const rsa::Backend kv : rsa::kAllBackends) {
      const Dsa verifier(shared_params(), kv);
      EXPECT_TRUE(verifier.verify(bytes_of("interop"), sig, kp.y));
    }
  }
}

TEST_F(DsaTest, TamperedSignatureRejected) {
  const Dsa dsa(shared_params());
  const KeyPair kp = dsa.generate_keypair(rng_);
  Signature sig = dsa.sign(bytes_of("msg"), kp.x, rng_);
  Signature bad = sig;
  bad.r += BigInt{1};
  EXPECT_FALSE(dsa.verify(bytes_of("msg"), bad, kp.y));
  bad = sig;
  bad.s += BigInt{1};
  EXPECT_FALSE(dsa.verify(bytes_of("msg"), bad, kp.y));
}

TEST_F(DsaTest, OutOfRangeValuesRejected) {
  const Dsa dsa(shared_params());
  const KeyPair kp = dsa.generate_keypair(rng_);
  const Signature sig = dsa.sign(bytes_of("msg"), kp.x, rng_);
  EXPECT_FALSE(dsa.verify(bytes_of("msg"), {BigInt{}, sig.s}, kp.y));
  EXPECT_FALSE(dsa.verify(bytes_of("msg"), {sig.r, BigInt{}}, kp.y));
  EXPECT_FALSE(
      dsa.verify(bytes_of("msg"), {shared_params().q, sig.s}, kp.y));
  EXPECT_FALSE(dsa.verify(bytes_of("msg"), sig, BigInt{1}));  // bad y
}

TEST_F(DsaTest, WrongKeyRejected) {
  const Dsa dsa(shared_params());
  const KeyPair kp1 = dsa.generate_keypair(rng_);
  const KeyPair kp2 = dsa.generate_keypair(rng_);
  const Signature sig = dsa.sign(bytes_of("msg"), kp1.x, rng_);
  EXPECT_FALSE(dsa.verify(bytes_of("msg"), sig, kp2.y));
}

TEST_F(DsaTest, SignaturesAreRandomized) {
  const Dsa dsa(shared_params());
  const KeyPair kp = dsa.generate_keypair(rng_);
  const Signature s1 = dsa.sign(bytes_of("msg"), kp.x, rng_);
  const Signature s2 = dsa.sign(bytes_of("msg"), kp.x, rng_);
  EXPECT_NE(s1.r, s2.r);  // fresh k per signature
  EXPECT_TRUE(dsa.verify(bytes_of("msg"), s1, kp.y));
  EXPECT_TRUE(dsa.verify(bytes_of("msg"), s2, kp.y));
}

TEST_F(DsaTest, RejectsInvalidParams) {
  Params bad = shared_params();
  bad.q += BigInt{2};  // q no longer divides p-1
  EXPECT_THROW(Dsa{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace phissl::dsa
