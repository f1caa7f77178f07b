// Unit tests for BigInt against fixed vectors (generated independently with
// Python's arbitrary-precision integers) plus edge-case behaviour.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bigint/bigint.hpp"
#include "util/random.hpp"

namespace phissl::bigint {
namespace {

// 1000-bit / 900-bit fixture values and their Python-computed results.
constexpr const char* kA =
    "cdb8b6d8fe442e3d437204e52db2221a58008a05a6c4647159c324c9859b810e766ec9d2"
    "8663ca828dd5f4b3b2e4b06ce60741c7a87ce42c8218072e8c35bf992dc9e9c616612e76"
    "96a6cecc1b78e510617311d8a3c2ce6f447ed4d57b1e2feb89414c343c1027c4d1c386bb"
    "c4cd613e30d8f16adf91b7584a2265b1f5";
constexpr const char* kB =
    "38d88348a7eed8d14f06d3fef701966a0c381e88f38c0c8fd8712b8bc076f3787b9d179e"
    "06c0fd4f5f8130c4237730edfafbd67f9619699cfe1988ad9f06c144a025b413f8a9a021"
    "ea648a7dd06839eb905b6e6e307d4bedc51431193e6c3f3391a2b8f1ff1fd42a29755d4c"
    "13a902931";
constexpr const char* kSum =
    "cdb8b6d8fe442e3d437204e5313faa4ee27f7792bbb4d1b149333e30265f02f705a78a9b"
    "83eadd3b49dd63eb3a9e81e6c673519c9e74f738c44f7a3d6be57d01272b805fe642c701"
    "70973ae0657b4051a0fdabdac2691717218558743423e6d26c4920f318616ad665aa4aae"
    "fde78ccd50caeead82290d2d0b5cf5db26";
constexpr const char* kDiff =
    "cdb8b6d8fe442e3d437204e52a2499e5cd819c7891d3f7316a530b62e4d7ff25e7360909"
    "88dcb7c9d1ce857c2b2adef3059b31f2b284d1203fe0941fac8602313468532c467f95eb"
    "bcb662b7d17689cf21e877d6851c85c767785136c2187904a63977755fbee4b33ddcc2c8"
    "8bb335af10e6f4283cfa618388e7d588c4";
constexpr const char* kProd =
    "2dae6559a72d5a066a78ec6006977677dbbe0563570ffc897d722438cad2611c17dc019b"
    "21e91e380e925b114382aa71d65026a163a15c944cc99101108b11bc8ba570c573c9c5c6"
    "3f0d6442f3e7ba6c1f0ed4ac80e4bc991a3d388eba8558ae8851abf49f01f2707e35bdc8"
    "c05de9abf4281f642befde54ac5dd03049def029b6dc0d27adf1e9bf322467542d335f09"
    "56f9dffd2f1d40617c057a521dd85c817cc58b95f262574fdd4a52af1b7d3c8e8d6a016d"
    "f05cbbf1f34005c1b570671cbf5e1d19a526fc9714cd056e8a14a478ceb09d15aa34fae7"
    "5acef310e490a32d0c330b3e769761d36ed7ac74ce5";
constexpr const char* kQuot = "39e730c31cd4bfdb33995ade90";
constexpr const char* kRem =
    "1a4fcf7db3261a9ea145f28bbc09f9d67da31e5de4c2796718d8ef139364292a0ce8c93e"
    "79ba532bfbca8997090a3eb23b381a2dbb6e9d5a26a5995df060d725e04d91395a32ff4f"
    "bb1ca2c7d7a52e14eaf0c74af8867ca6ad5dc1d465b5b76e73318c9405fdd83a6d7d3bc0"
    "695c0865";
constexpr const char* kM =
    "a46d6753ec148cb48e73ca47ea90a8f0d66b829e6a8ac4ba05805975ed2f89d94a2f20aa"
    "f3c64af775a89294c2cd789a380208a9ad45f23d3b1a11df587fd281";
constexpr const char* kE =
    "efba91fc803468b6b610a9f7f9270f4eb8b333a8e5446dd4552b82f6be3edc0a1ef2a4f0"
    "4be03db0dc2574bdb94067edfe175330a11d459a2f978d8719999e3f";
constexpr const char* kBase =
    "815a47c5f0dfb4a5d8a064df7fd63116e1ea24c4f9341c68966baea148beab134da98f1d"
    "3099fdf5ab99254ae901e35cd47d380d81f9c1f66c0f3459f79b17ae";
constexpr const char* kModPow =
    "3c6938e41fbaefaeef77a68f84017dd48700de1315d3d5c4ed66da006c002c392f736126"
    "d9aa7a6dc6f63f1254e2296090fb087adb07064c519a161523b32cc4";
constexpr const char* kDecA =
    "861064065739910089272464951368174031524040067306802548082257876035300878"
    "420718333321174460652831423336773289317132103055688598938295295547892753"
    "386882024620490196004031747619764035083180615111147291145275312158837161"
    "6898911504816555959891312097130169449473961398351704722673406850981256051"
    "831605670389";

TEST(BigIntBasic, ZeroProperties) {
  const BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_decimal(), "0");
  EXPECT_TRUE(z.to_bytes_be().empty());
  EXPECT_EQ(z, BigInt{0});
  EXPECT_EQ(-z, z);
}

TEST(BigIntBasic, SmallConstruction) {
  EXPECT_EQ(BigInt{1}.to_hex(), "1");
  EXPECT_EQ(BigInt{-1}.to_hex(), "-1");
  EXPECT_EQ(BigInt{255}.to_hex(), "ff");
  EXPECT_EQ(BigInt::from_u64(0xffffffffffffffffULL).to_hex(),
            "ffffffffffffffff");
  EXPECT_EQ(BigInt{INT64_MIN}.to_hex(), "-8000000000000000");
}

TEST(BigIntBasic, HexRoundTrip) {
  const BigInt a = BigInt::from_hex(kA);
  EXPECT_EQ(a.to_hex(), kA);
  EXPECT_EQ(BigInt::from_hex("0x00ff").to_hex(), "ff");
  EXPECT_EQ(BigInt::from_hex("-ff").to_hex(), "-ff");
  EXPECT_EQ(BigInt::from_hex("-0").to_hex(), "0");  // -0 normalizes to 0
  EXPECT_THROW(BigInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigIntBasic, DecimalConversion) {
  const BigInt a = BigInt::from_hex(kA);
  EXPECT_EQ(a.to_decimal(), kDecA);
  EXPECT_EQ(BigInt::from_decimal(kDecA), a);
  EXPECT_EQ(BigInt::from_decimal("-12345").to_decimal(), "-12345");
  EXPECT_EQ(BigInt::from_decimal("0").to_decimal(), "0");
  EXPECT_EQ(BigInt::from_decimal("1000000000").to_decimal(), "1000000000");
  EXPECT_THROW(BigInt::from_decimal("12a"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_decimal(""), std::invalid_argument);
}

TEST(BigIntBasic, BytesRoundTrip) {
  const BigInt a = BigInt::from_hex(kA);
  const auto bytes = a.to_bytes_be();
  EXPECT_EQ(BigInt::from_bytes_be(bytes), a);
  // Fixed-size padding.
  const auto padded = BigInt{0x1234}.to_bytes_be(8);
  ASSERT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[6], 0x12);
  EXPECT_EQ(padded[7], 0x34);
  EXPECT_EQ(padded[0], 0x00);
  EXPECT_THROW(a.to_bytes_be(4), std::length_error);
}

TEST(BigIntArith, AddSubFixedVectors) {
  const BigInt a = BigInt::from_hex(kA);
  const BigInt b = BigInt::from_hex(kB);
  EXPECT_EQ((a + b).to_hex(), kSum);
  EXPECT_EQ((a - b).to_hex(), kDiff);
  EXPECT_EQ((b - a).to_hex(), std::string("-") + kDiff);
  EXPECT_EQ(a + (-a), BigInt{});
}

TEST(BigIntArith, MulFixedVector) {
  const BigInt a = BigInt::from_hex(kA);
  const BigInt b = BigInt::from_hex(kB);
  EXPECT_EQ((a * b).to_hex(), kProd);
  EXPECT_EQ((b * a).to_hex(), kProd);
  EXPECT_EQ(((-a) * b).to_hex(), std::string("-") + kProd);
  EXPECT_EQ(((-a) * (-b)).to_hex(), kProd);
}

TEST(BigIntArith, DivModFixedVector) {
  const BigInt a = BigInt::from_hex(kA);
  const BigInt b = BigInt::from_hex(kB);
  EXPECT_EQ((a / b).to_hex(), kQuot);
  EXPECT_EQ((a % b).to_hex(), kRem);
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
}

TEST(BigIntArith, TruncatedDivisionSigns) {
  const BigInt seven{7}, three{3};
  EXPECT_EQ((seven / three).to_decimal(), "2");
  EXPECT_EQ((seven % three).to_decimal(), "1");
  EXPECT_EQ(((-seven) / three).to_decimal(), "-2");
  EXPECT_EQ(((-seven) % three).to_decimal(), "-1");
  EXPECT_EQ((seven / (-three)).to_decimal(), "-2");
  EXPECT_EQ((seven % (-three)).to_decimal(), "1");
  EXPECT_EQ(((-seven) % (-three)).to_decimal(), "-1");
}

TEST(BigIntArith, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{}, std::domain_error);
  EXPECT_THROW(BigInt{1} % BigInt{}, std::domain_error);
}

TEST(BigIntArith, DivisorLargerThanDividend) {
  const BigInt small{5}, big = BigInt::from_hex(kA);
  EXPECT_EQ(small / big, BigInt{});
  EXPECT_EQ(small % big, small);
}

TEST(BigIntArith, SingleLimbDivision) {
  const BigInt a = BigInt::from_hex(kA);
  const BigInt d{0x12345};
  BigInt q, r;
  BigInt::divmod(a, d, q, r);
  EXPECT_EQ(q * d + r, a);
  EXPECT_LT(r, d);
}

TEST(BigIntArith, Shifts) {
  const BigInt one{1};
  EXPECT_EQ((one << 100).bit_length(), 101u);
  EXPECT_EQ(((one << 100) >> 100), one);
  EXPECT_EQ((one >> 1), BigInt{});
  const BigInt a = BigInt::from_hex(kA);
  EXPECT_EQ(((a << 37) >> 37), a);
  EXPECT_EQ((a << 0), a);
  EXPECT_EQ((a >> 0), a);
  EXPECT_EQ((a >> 2000), BigInt{});  // shift past the top
  // Shift equals multiply by power of two.
  EXPECT_EQ(a << 32, a * BigInt::from_u64(1ULL << 32));
}

TEST(BigIntArith, SquaredMatchesMul) {
  const BigInt a = BigInt::from_hex(kA);
  EXPECT_EQ(a.squared(), a * a);
  EXPECT_EQ(BigInt{}.squared(), BigInt{});
  EXPECT_EQ(BigInt{3}.squared(), BigInt{9});
}

TEST(BigIntCompare, Ordering) {
  const BigInt a = BigInt::from_hex(kA);
  const BigInt b = BigInt::from_hex(kB);
  EXPECT_LT(b, a);
  EXPECT_GT(a, b);
  EXPECT_LT(-a, b);
  EXPECT_LT(-a, -b);
  EXPECT_EQ(a, a);
  EXPECT_LT(BigInt{}, BigInt{1});
  EXPECT_LT(BigInt{-1}, BigInt{});
}

TEST(BigIntBits, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");
  EXPECT_EQ(v.bit_length(), 64u);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(32));
  EXPECT_FALSE(v.bit(1000));
}

TEST(BigIntBits, BitsWindow) {
  const BigInt v = BigInt::from_hex("123456789abcdef0");
  EXPECT_EQ(v.bits_window(0, 4), 0x0u);
  EXPECT_EQ(v.bits_window(4, 4), 0xfu);
  EXPECT_EQ(v.bits_window(8, 8), 0xdeu);
  EXPECT_EQ(v.bits_window(28, 8), 0x89u);  // straddles the limb boundary
  EXPECT_EQ(v.bits_window(60, 4), 0x1u);
  EXPECT_EQ(v.bits_window(64, 8), 0x0u);  // past the top
  EXPECT_EQ(v.bits_window(0, 32), 0x9abcdef0u);
  EXPECT_THROW((void)v.bits_window(0, 33), std::invalid_argument);
}

TEST(BigIntModular, ModPowFixedVector) {
  const BigInt base = BigInt::from_hex(kBase);
  const BigInt e = BigInt::from_hex(kE);
  const BigInt m = BigInt::from_hex(kM);
  EXPECT_EQ(base.mod_pow(e, m).to_hex(), kModPow);
}

TEST(BigIntModular, ModPowEdgeCases) {
  const BigInt m{1000003};
  EXPECT_EQ(BigInt{5}.mod_pow(BigInt{}, m), BigInt{1});  // x^0 = 1
  EXPECT_EQ(BigInt{5}.mod_pow(BigInt{1}, m), BigInt{5});
  EXPECT_EQ(BigInt{}.mod_pow(BigInt{10}, m), BigInt{});  // 0^k = 0
  EXPECT_EQ(BigInt{5}.mod_pow(BigInt{3}, BigInt{1}), BigInt{});  // mod 1
  EXPECT_THROW(BigInt{2}.mod_pow(BigInt{-1}, m), std::domain_error);
  EXPECT_THROW(BigInt{2}.mod_pow(BigInt{3}, BigInt{}), std::domain_error);
}

TEST(BigIntModular, ModReturnsCanonicalResidue) {
  const BigInt m{7};
  EXPECT_EQ(BigInt{-1}.mod(m), BigInt{6});
  EXPECT_EQ(BigInt{-8}.mod(m), BigInt{6});
  EXPECT_EQ(BigInt{13}.mod(m), BigInt{6});
  EXPECT_THROW(BigInt{1}.mod(BigInt{-5}), std::domain_error);
}

TEST(BigIntModular, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{}, BigInt{5}), BigInt{5});
  EXPECT_EQ(BigInt::gcd(BigInt{17}, BigInt{13}), BigInt{1});
}

TEST(BigIntModular, ExtendedGcdBezout) {
  const BigInt a{240}, b{46};
  BigInt x, y;
  const BigInt g = BigInt::extended_gcd(a, b, x, y);
  EXPECT_EQ(g, BigInt{2});
  EXPECT_EQ(a * x + b * y, g);
}

TEST(BigIntModular, ModInverse) {
  const BigInt m{1000003};  // prime
  for (std::int64_t v : {2, 3, 999999, 12345}) {
    const BigInt inv = BigInt{v}.mod_inverse(m);
    EXPECT_EQ((BigInt{v} * inv).mod(m), BigInt{1});
  }
  EXPECT_THROW(BigInt{6}.mod_inverse(BigInt{12}), std::domain_error);
  EXPECT_THROW(BigInt{1}.mod_inverse(BigInt{1}), std::domain_error);
}

TEST(BigIntPrime, KnownSmallPrimes) {
  util::Rng rng(5);
  for (std::int64_t p : {2, 3, 5, 7, 97, 251, 65537, 1000003}) {
    EXPECT_TRUE(BigInt{p}.is_probable_prime(16, rng)) << p;
  }
  for (std::int64_t c : {0, 1, 4, 9, 91, 65536, 1000001}) {
    EXPECT_FALSE(BigInt{c}.is_probable_prime(16, rng)) << c;
  }
}

TEST(BigIntPrime, CarmichaelNumbersRejected) {
  util::Rng rng(6);
  // Carmichael numbers fool Fermat but not Miller–Rabin.
  for (std::int64_t c : {561, 1105, 1729, 2465, 2821, 6601, 8911, 41041}) {
    EXPECT_FALSE(BigInt{c}.is_probable_prime(16, rng)) << c;
  }
}

TEST(BigIntPrime, KnownLargePrime) {
  util::Rng rng(7);
  // 2^127 - 1 (Mersenne prime) and 2^128 + 51 (prime).
  const BigInt m127 = (BigInt{1} << 127) - BigInt{1};
  EXPECT_TRUE(m127.is_probable_prime(16, rng));
  const BigInt p128 = (BigInt{1} << 128) + BigInt{51};
  EXPECT_TRUE(p128.is_probable_prime(16, rng));
  // 2^128 + 1 = 59649589127497217 * 5704689200685129054721 (composite).
  const BigInt f7 = (BigInt{1} << 128) + BigInt{1};
  EXPECT_FALSE(f7.is_probable_prime(16, rng));
}

TEST(BigIntPrime, RandomPrimeShape) {
  util::Rng rng(8);
  const BigInt p = BigInt::random_prime(128, rng, 16);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.bit(126));  // second-highest bit forced
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.is_probable_prime(16, rng));
}

TEST(BigIntRandom, RandomBitsBounds) {
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const BigInt v = BigInt::random_bits(257, rng);
    EXPECT_LE(v.bit_length(), 257u);
  }
  EXPECT_TRUE(BigInt::random_bits(0, rng).is_zero());
}

TEST(BigIntRandom, RandomBelowBounds) {
  util::Rng rng(10);
  const BigInt bound = BigInt::from_hex(kM);
  for (int i = 0; i < 50; ++i) {
    const BigInt v = BigInt::random_below(bound, rng);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.is_negative());
  }
  EXPECT_THROW(BigInt::random_below(BigInt{}, rng), std::invalid_argument);
}

TEST(BigIntRandom, RandomOddExactBits) {
  util::Rng rng(11);
  for (std::size_t bits : {2u, 17u, 64u, 129u, 512u}) {
    const BigInt v = BigInt::random_odd_exact_bits(bits, rng);
    EXPECT_EQ(v.bit_length(), bits);
    EXPECT_TRUE(v.is_odd());
  }
}

TEST(BigIntU64, ToU64) {
  EXPECT_EQ(BigInt::from_u64(0xdeadbeefcafef00dULL).to_u64(),
            0xdeadbeefcafef00dULL);
  EXPECT_EQ(BigInt{}.to_u64(), 0u);
  EXPECT_THROW((void)BigInt::from_hex(kA).to_u64(), std::overflow_error);
}

}  // namespace
}  // namespace phissl::bigint
