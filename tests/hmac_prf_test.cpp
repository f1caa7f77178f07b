// HMAC-SHA-256 against RFC 4231 known-answer vectors, and the TLS 1.2
// P_SHA256 PRF against the community test vector.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ssl/prf.hpp"
#include "util/hex.hpp"
#include "util/hmac.hpp"

namespace phissl {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string mac_hex(const std::vector<std::uint8_t>& key,
                    const std::vector<std::uint8_t>& msg) {
  const auto d = util::HmacSha256::mac(key, msg);
  return util::hex_encode(d.data(), d.size());
}

TEST(HmacSha256, Rfc4231Case1) {
  EXPECT_EQ(mac_hex(std::vector<std::uint8_t>(20, 0x0b), bytes("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(mac_hex(bytes("Jefe"), bytes("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  EXPECT_EQ(mac_hex(std::vector<std::uint8_t>(20, 0xaa),
                    std::vector<std::uint8_t>(50, 0xdd)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  std::vector<std::uint8_t> key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);
  }
  EXPECT_EQ(mac_hex(key, std::vector<std::uint8_t>(50, 0xcd)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231LargeKey) {
  // Key > block size is hashed first.
  EXPECT_EQ(
      mac_hex(std::vector<std::uint8_t>(131, 0xaa),
              bytes("Test Using Larger Than Block-Size Key - Hash Key First")),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, IncrementalMatchesOneShot) {
  const auto key = bytes("incremental key");
  const auto msg = bytes("split me across several update calls please");
  const auto whole = util::HmacSha256::mac(key, msg);
  util::HmacSha256 h(key);
  h.update(std::span<const std::uint8_t>(msg).subspan(0, 10));
  h.update(std::span<const std::uint8_t>(msg).subspan(10));
  EXPECT_EQ(h.finish(), whole);
}

TEST(HmacSha256, KeyedCopiesMacIndependently) {
  // A keyed object is reused by copying it: each copy must MAC exactly as
  // a freshly keyed object does, and finishing one copy must not disturb
  // the original or its other copies.
  const auto key = bytes("a key that is keyed only once");
  const util::HmacSha256 keyed(key);
  for (const auto& msg :
       {bytes(""), bytes("first"), bytes(std::string(200, 'x'))}) {
    util::HmacSha256 h = keyed;
    h.update(msg);
    EXPECT_EQ(h.finish(), util::HmacSha256::mac(key, msg));
  }
  util::HmacSha256 again = keyed;
  EXPECT_EQ(again.finish(), util::HmacSha256::mac(key, {}));
}

TEST(TlsPrf, KnownVector100Bytes) {
  const auto secret = util::hex_decode("9bbe436ba940f017b17652849a71db35");
  const auto seed = util::hex_decode("a0ba9f936cda311827a6f796ffd5198c");
  const auto out = ssl::prf_sha256(secret, "test label", seed, 100);
  EXPECT_EQ(util::hex_encode(out),
            "e3f229ba727be17b8d122620557cd453c2aab21d07c3d495329b52d4e61edb5a"
            "6b301791e90d35c9c9a46b4e14baf9af0fa022f7077def17abfd3797c0564bab"
            "4fbc91666e9def9b97fce34f796789baa48082d122ee42c5a72e5a5110fff701"
            "87347b66");
}

TEST(TlsPrf, LengthsAndDeterminism) {
  const auto secret = bytes("secret");
  const auto seed = bytes("seed");
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 64u, 200u}) {
    const auto a = ssl::prf_sha256(secret, "label", seed, len);
    const auto b = ssl::prf_sha256(secret, "label", seed, len);
    EXPECT_EQ(a.size(), len);
    EXPECT_EQ(a, b);
  }
  // Prefix property: longer output extends shorter one.
  const auto short_out = ssl::prf_sha256(secret, "label", seed, 16);
  const auto long_out = ssl::prf_sha256(secret, "label", seed, 48);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

TEST(TlsPrf, DifferentLabelsDiffer) {
  const auto secret = bytes("secret");
  const auto seed = bytes("seed");
  EXPECT_NE(ssl::prf_sha256(secret, "client finished", seed, 12),
            ssl::prf_sha256(secret, "server finished", seed, 12));
}

}  // namespace
}  // namespace phissl
