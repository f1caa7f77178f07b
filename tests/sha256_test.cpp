// SHA-256 against FIPS 180-4 / NIST CAVP known-answer vectors, on the
// default compress (SHA-NI where the CPU has it) and on the portable one.
// The Sha256Paths cases hold the two compress functions to each other on
// every message length from 0 to 4096 bytes.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "util/cpu.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace phissl::util {
namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string hash_hex_on(std::string_view msg, bool force_portable) {
  Sha256 h(force_portable);
  h.update(as_bytes(msg));
  const auto d = h.finish();
  return hex_encode(d.data(), d.size());
}

/// The default path's digest; the portable path must agree with it.
std::string hash_hex(std::string_view msg) {
  const std::string hex = hash_hex_on(msg, /*force_portable=*/false);
  EXPECT_EQ(hash_hex_on(msg, /*force_portable=*/true), hex);
  return hex;
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55 bytes: padding fits in one block; 56 bytes: forces a second block;
  // 64 bytes: exactly one full block of data.
  EXPECT_EQ(hash_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hash_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(hash_hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()));
  }
  const auto d = h.finish();
  EXPECT_EQ(hex_encode(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and with "
      "increasing enthusiasm, until the message spans several blocks.";
  const auto whole = hash_hex(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), split));
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()) + split,
        msg.size() - split));
    const auto d = h.finish();
    EXPECT_EQ(hex_encode(d.data(), d.size()), whole) << "split=" << split;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  const std::string a = "first";
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(a.data()), a.size()));
  (void)h.finish();
  h.reset();
  const auto d = h.finish();  // hash of empty after reset
  EXPECT_EQ(hex_encode(d.data(), d.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

/// FIPS 180-4 example digests plus the block-boundary lengths.
void expect_fips_vectors(bool force_portable) {
  const struct {
    std::string msg;
    const char* hex;
  } cases[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(55, 'a'),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(hash_hex_on(c.msg, force_portable), c.hex)
        << "len=" << c.msg.size();
  }
}

TEST(Sha256Paths, PortablePassesFips180Vectors) {
  EXPECT_FALSE(Sha256(/*force_portable=*/true).hardware());
  expect_fips_vectors(/*force_portable=*/true);
}

TEST(Sha256Paths, HardwarePassesFips180Vectors) {
  if (!cpu_features().sha) GTEST_SKIP() << "CPUID reports no SHA-NI";
  EXPECT_TRUE(Sha256().hardware());
  expect_fips_vectors(/*force_portable=*/false);
}

TEST(Sha256Paths, HardwareAgreesWithPortableOnEveryLength0To4096) {
  if (!cpu_features().sha) GTEST_SKIP() << "CPUID reports no SHA-NI";
  Rng rng(0x5a256);
  const std::vector<std::uint8_t> msg = rng.bytes(4096);
  const std::span<const std::uint8_t> all(msg);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    Sha256 hw;
    Sha256 sw(/*force_portable=*/true);
    // Uneven chunks, so buffered tails and multi-block runs both reach
    // the compress.
    const std::size_t cut = (len * 7) / 13;
    hw.update(all.subspan(0, cut));
    hw.update(all.subspan(cut, len - cut));
    sw.update(all.subspan(0, len));
    ASSERT_EQ(hw.finish(), sw.finish()) << "len=" << len;
  }
}

}  // namespace
}  // namespace phissl::util
