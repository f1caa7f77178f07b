// Diffie-Hellman tests: key agreement across kernels, RFC groups, and
// degenerate-value rejection.
#include <gtest/gtest.h>

#include "dh/dh.hpp"
#include "util/random.hpp"

namespace phissl::dh {
namespace {

using bigint::BigInt;

TEST(DhParams, Rfc3526Group14Shape) {
  const Params& p = rfc3526_group14();
  EXPECT_EQ(p.p.bit_length(), 2048u);
  EXPECT_EQ(p.g, BigInt{2});
  EXPECT_TRUE(p.looks_valid());
  util::Rng rng(1);
  // The RFC modulus is a safe prime; check primality of p and (p-1)/2.
  EXPECT_TRUE(p.p.is_probable_prime(8, rng));
  EXPECT_TRUE(((p.p - BigInt{1}) >> 1).is_probable_prime(8, rng));
}

TEST(DhParams, Rfc2409Group2Shape) {
  const Params& p = rfc2409_group2();
  EXPECT_EQ(p.p.bit_length(), 1024u);
  EXPECT_TRUE(p.looks_valid());
}

TEST(Dh, KeyAgreementAllKernels) {
  util::Rng rng(3);
  for (const rsa::Backend k : rsa::kAllBackends) {
    const Dh dh(rfc2409_group2(), k);
    const KeyPair alice = dh.generate_keypair(rng);
    const KeyPair bob = dh.generate_keypair(rng);
    const BigInt s1 = dh.compute_shared(alice.x, bob.y);
    const BigInt s2 = dh.compute_shared(bob.x, alice.y);
    EXPECT_EQ(s1, s2);
    EXPECT_GT(s1, BigInt{1});
  }
}

TEST(Dh, KernelsProduceIdenticalPublicValues) {
  util::Rng rng(4);
  const BigInt x = BigInt::random_bits(256, rng) + BigInt{2};
  BigInt reference;
  bool first = true;
  for (const rsa::Backend k : rsa::kAllBackends) {
    const Dh dh(rfc2409_group2(), k);
    const BigInt y = dh.compute_shared(x, BigInt{3});  // 3^x mod p
    if (first) {
      reference = y;
      first = false;
    } else {
      EXPECT_EQ(y, reference);
    }
  }
}

TEST(Dh, Group14Agreement) {
  util::Rng rng(5);
  const Dh dh(rfc3526_group14());
  const KeyPair a = dh.generate_keypair(rng);
  const KeyPair b = dh.generate_keypair(rng);
  EXPECT_EQ(dh.compute_shared(a.x, b.y), dh.compute_shared(b.x, a.y));
}

TEST(Dh, RejectsDegeneratePeerValues) {
  util::Rng rng(6);
  const Dh dh(rfc2409_group2());
  const KeyPair kp = dh.generate_keypair(rng);
  const BigInt& p = dh.params().p;
  EXPECT_THROW(dh.compute_shared(kp.x, BigInt{}), std::invalid_argument);
  EXPECT_THROW(dh.compute_shared(kp.x, BigInt{1}), std::invalid_argument);
  EXPECT_THROW(dh.compute_shared(kp.x, p - BigInt{1}), std::invalid_argument);
  EXPECT_THROW(dh.compute_shared(kp.x, p), std::invalid_argument);
}

TEST(Dh, RejectsInvalidParams) {
  Params bad;
  bad.p = BigInt{100};  // even
  bad.g = BigInt{2};
  EXPECT_THROW(Dh{bad}, std::invalid_argument);
  bad.p = rfc2409_group2().p;
  bad.g = BigInt{1};  // degenerate generator
  EXPECT_THROW(Dh{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace phissl::dh
