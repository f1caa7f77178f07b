// Tests for the named baseline system presets.
#include <gtest/gtest.h>

#include <string>

#include "baseline/systems.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

namespace phissl::baseline {
namespace {

TEST(Systems, NamesAreDistinct) {
  EXPECT_STREQ(name(System::kPhiOpenSSL), "PhiOpenSSL");
  EXPECT_STREQ(name(System::kMpssLibcrypto), "MPSS-libcrypto");
  EXPECT_STREQ(name(System::kOpensslDefault), "OpenSSL-default");
}

TEST(Systems, PresetsMatchPaperDescription) {
  const auto phi = options_for(System::kPhiOpenSSL);
  EXPECT_EQ(phi.kernel, rsa::Backend::kKncVec);
  EXPECT_EQ(phi.schedule, rsa::Schedule::kFixedWindow);
  EXPECT_TRUE(phi.use_crt);

  const auto mpss = options_for(System::kMpssLibcrypto);
  EXPECT_EQ(mpss.kernel, rsa::Backend::kScalar32);
  EXPECT_EQ(mpss.schedule, rsa::Schedule::kSlidingWindow);

  const auto ossl = options_for(System::kOpensslDefault);
  EXPECT_EQ(ossl.kernel, rsa::Backend::kScalar64);
  EXPECT_EQ(ossl.schedule, rsa::Schedule::kSlidingWindow);
}

TEST(Systems, AllSystemsInterop) {
  // Signature from any system verifies under any other (same key => same
  // math), proving the presets only differ in implementation strategy.
  const rsa::PrivateKey& key = rsa::test_key(512);
  util::Rng rng(5);
  const bigint::BigInt m = bigint::BigInt::random_below(key.pub.n, rng);
  bigint::BigInt first;
  bool have_first = false;
  for (const System s : all_systems()) {
    const rsa::Engine engine = make_engine(s, key);
    const bigint::BigInt sig = engine.private_op(m);
    if (!have_first) {
      first = sig;
      have_first = true;
    } else {
      EXPECT_EQ(sig, first) << name(s);
    }
    EXPECT_EQ(engine.public_op(sig), m) << name(s);
  }
}

TEST(Systems, PublicEngineWorks) {
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine pub_engine =
      make_public_engine(System::kPhiOpenSSL, key.pub);
  EXPECT_FALSE(pub_engine.has_private());
  const rsa::Engine full = make_engine(System::kPhiOpenSSL, key);
  const bigint::BigInt sig = full.private_op(bigint::BigInt{12345});
  EXPECT_EQ(pub_engine.public_op(sig), bigint::BigInt{12345});
}

}  // namespace
}  // namespace phissl::baseline
