// AES-128 against FIPS-197 / NIST SP 800-38A known-answer vectors, plus CBC
// round-trips and padding failure injection, on both implementations: the
// bitsliced fallback and AES-NI (hardware cases skip only when CPUID lacks
// AES-NI). AesPaths holds the two to each other on random keys and
// blocks and over the record_cbc fuzz corpus; AesWipe checks that a dead
// cipher leaves no key-derived byte behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <vector>

#include "fuzz/fixture.hpp"
#include "fuzz/mutate.hpp"
#include "util/aes.hpp"
#include "util/cpu.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"

namespace phissl::util {
namespace {

std::vector<std::uint8_t> H(const char* hex) { return hex_decode(hex); }

/// force_portable values to run: the fallback always, AES-NI when present.
std::vector<bool> paths() {
  std::vector<bool> p{true};
  if (cpu_features().aes) p.push_back(false);
  return p;
}

std::string encrypt_hex(const char* key_hex, const char* pt_hex,
                        bool force_portable) {
  const Aes aes(H(key_hex), force_portable);
  const auto pt = H(pt_hex);
  std::vector<std::uint8_t> ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  std::vector<std::uint8_t> back(16);
  aes.decrypt_block(ct.data(), back.data());
  EXPECT_EQ(back, pt);
  return hex_encode(ct);
}

/// FIPS 197 C.1 and the four SP 800-38A F.1.1 ECB-AES128 blocks.
void expect_known_answers(bool force_portable) {
  EXPECT_EQ(encrypt_hex("000102030405060708090a0b0c0d0e0f",
                        "00112233445566778899aabbccddeeff", force_portable),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  const char* key = "2b7e151628aed2a6abf7158809cf4f3c";
  const char* ecb[][2] = {
      {"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
      {"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
      {"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
      {"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
  };
  for (const auto& c : ecb) {
    EXPECT_EQ(encrypt_hex(key, c[0], force_portable), c[1]) << c[0];
  }
  // SP 800-38A F.2.1 CBC-AES128, all four blocks (PKCS#7 appends a fifth,
  // which is not compared), and back.
  const Aes aes(H(key), force_portable);
  const auto pt = H(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  const auto iv = H("000102030405060708090a0b0c0d0e0f");
  auto ct = aes_cbc_encrypt(aes, iv, pt);
  std::vector<std::uint8_t> back;
  EXPECT_TRUE(aes_cbc_decrypt(aes, iv, ct, back));
  EXPECT_EQ(back, pt);
  ct.resize(pt.size());
  EXPECT_EQ(hex_encode(ct),
            "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7");
}

TEST(Aes, Fips197Aes128) {
  // FIPS 197 Appendix C.1
  for (const bool portable : paths()) {
    EXPECT_EQ(encrypt_hex("000102030405060708090a0b0c0d0e0f",
                          "00112233445566778899aabbccddeeff", portable),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
  }
}

TEST(Aes, Sp80038aEcbVector) {
  // SP 800-38A F.1.1 ECB-AES128 block #1
  for (const bool portable : paths()) {
    EXPECT_EQ(encrypt_hex("2b7e151628aed2a6abf7158809cf4f3c",
                          "6bc1bee22e409f96e93d7e117393172a", portable),
              "3ad77bb40d7a3660a89ecaf32466ef97");
  }
}

TEST(Aes, DecryptInvertsEncrypt) {
  Rng rng(1);
  for (const bool portable : paths()) {
    const auto key = rng.bytes(16);
    const Aes aes(key, portable);
    for (int i = 0; i < 20; ++i) {
      const auto pt = rng.bytes(16);
      std::uint8_t ct[16], back[16];
      aes.encrypt_block(pt.data(), ct);
      aes.decrypt_block(ct, back);
      EXPECT_TRUE(std::equal(pt.begin(), pt.end(), back));
    }
  }
}

TEST(Aes, InPlaceBlockOps) {
  Rng rng(2);
  for (const bool portable : paths()) {
    const auto key = rng.bytes(16);
    const Aes aes(key, portable);
    auto buf = rng.bytes(16);
    const auto orig = buf;
    aes.encrypt_block(buf.data(), buf.data());
    EXPECT_NE(buf, orig);
    aes.decrypt_block(buf.data(), buf.data());
    EXPECT_EQ(buf, orig);
  }
}

TEST(Aes, RejectsBadKeySize) {
  // AES-128 only: 24- and 32-byte keys are rejected too.
  for (const std::size_t len : {0u, 15u, 17u, 24u, 32u, 33u}) {
    const std::vector<std::uint8_t> bad(len, 0);
    EXPECT_THROW(Aes{bad}, std::invalid_argument) << len;
  }
}

TEST(AesCbc, Sp80038aCbcVector) {
  // SP 800-38A F.2.1 CBC-AES128, first block (PKCS#7 adds a pad block,
  // so compare the first 16 ciphertext bytes only).
  const Aes aes(H("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto iv = H("000102030405060708090a0b0c0d0e0f");
  const auto pt = H("6bc1bee22e409f96e93d7e117393172a");
  const auto ct = aes_cbc_encrypt(aes, iv, pt);
  ASSERT_EQ(ct.size(), 32u);  // 1 data block + 1 pad block
  EXPECT_EQ(hex_encode(std::vector<std::uint8_t>(ct.begin(), ct.begin() + 16)),
            "7649abac8119b246cee98e9b12e9197d");
}

TEST(AesCbc, RoundTripVariousLengths) {
  Rng rng(3);
  const auto key = rng.bytes(16);
  const Aes aes(key);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u}) {
    const auto iv = rng.bytes(16);
    const auto pt = rng.bytes(len);
    const auto ct = aes_cbc_encrypt(aes, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());  // always at least one pad byte
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(aes_cbc_decrypt(aes, iv, ct, back)) << len;
    EXPECT_EQ(back, pt) << len;
  }
}

TEST(AesCbc, PaddingCorruptionDetected) {
  Rng rng(4);
  const Aes aes(rng.bytes(16));
  const auto iv = rng.bytes(16);
  const auto pt = rng.bytes(20);
  auto ct = aes_cbc_encrypt(aes, iv, pt);
  // Corrupt the last block (holds the padding).
  ct.back() ^= 0xff;
  std::vector<std::uint8_t> out;
  const bool ok = aes_cbc_decrypt(aes, iv, ct, out);
  if (ok) {
    EXPECT_NE(out, pt);  // if padding survived by luck, data must differ
  }
}

TEST(AesCbc, BadLengthsThrow) {
  Rng rng(5);
  const Aes aes(rng.bytes(16));
  const auto iv = rng.bytes(16);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(aes_cbc_decrypt(aes, iv, rng.bytes(15), out),
               std::invalid_argument);
  EXPECT_THROW(aes_cbc_decrypt(aes, iv, {}, out), std::invalid_argument);
  EXPECT_THROW(aes_cbc_encrypt(aes, rng.bytes(8), rng.bytes(16)),
               std::invalid_argument);
}

TEST(AesCbc, InvalidPadReturnsWholeBufferForMac) {
  // Zero-length-pad semantics (RFC 5246 §6.2.3.2): on a bad pad the
  // decryptor must hand back the ENTIRE decrypted buffer so a
  // MAC-then-encrypt caller can still run its MAC over something of
  // pad-independent length, instead of branching on the pad first.
  Rng rng(7);
  const Aes aes(rng.bytes(16));
  const auto iv = rng.bytes(16);
  const auto pt = rng.bytes(40);
  auto ct = aes_cbc_encrypt(aes, iv, pt);  // 48 bytes, pad = 8
  // Force the final plaintext byte to an impossible pad length by
  // flipping a high bit through the previous ciphertext block.
  ct[ct.size() - 17] ^= 0x80;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(aes_cbc_decrypt(aes, iv, ct, out));
  EXPECT_EQ(out.size(), ct.size());  // whole buffer, not truncated/empty
}

TEST(AesCbc, PadBoundaryValuesRoundTrip) {
  // pad = 1 (15-byte tail) and pad = 16 (full pad block) are the edges
  // the branch-free range check must accept.
  Rng rng(8);
  const Aes aes(rng.bytes(16));
  for (std::size_t len : {15u, 16u}) {
    const auto iv = rng.bytes(16);
    const auto pt = rng.bytes(len);
    const auto ct = aes_cbc_encrypt(aes, iv, pt);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(aes_cbc_decrypt(aes, iv, ct, out)) << len;
    EXPECT_EQ(out, pt) << len;
  }
}

TEST(AesCbc, ZeroPadByteRejected) {
  // A trailing 0x00 is outside PKCS#7's [1, 16] range; the masked range
  // check must catch it without wrapping (pad - 1 underflows to 2^32-1).
  Rng rng(9);
  const Aes aes(rng.bytes(16));
  const auto iv = rng.bytes(16);
  auto block = rng.bytes(48);
  // Build a ciphertext whose decryption ends in 0x00 by construction
  // (CBC: pt[i] = D(ct[i]) ^ ct[i-1], so the penultimate ciphertext
  // block's last byte steers the final plaintext byte).
  std::array<std::uint8_t, 16> dec{};
  aes.decrypt_block(block.data() + 32, dec.data());
  block[31] = dec[15];  // last pt byte = dec[15] ^ block[31] = 0x00
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(aes_cbc_decrypt(aes, iv, block, out));
  EXPECT_EQ(out.size(), block.size());
}

TEST(AesCbc, WrongIvFailsOrGarbles) {
  Rng rng(6);
  const Aes aes(rng.bytes(16));
  const auto iv = rng.bytes(16);
  const auto pt = rng.bytes(32);
  const auto ct = aes_cbc_encrypt(aes, iv, pt);
  const auto wrong_iv = rng.bytes(16);
  std::vector<std::uint8_t> out;
  // Wrong IV garbles only the first block; padding may still validate,
  // but the plaintext cannot match.
  if (aes_cbc_decrypt(aes, wrong_iv, ct, out)) {
    EXPECT_NE(out, pt);
  }
}

TEST(AesPaths, PortablePassesFips197AndSp80038a) {
  EXPECT_FALSE(Aes(std::vector<std::uint8_t>(16), true).hardware());
  expect_known_answers(/*force_portable=*/true);
}

TEST(AesPaths, HardwarePassesFips197AndSp80038a) {
  if (!cpu_features().aes) GTEST_SKIP() << "CPUID reports no AES-NI";
  EXPECT_TRUE(Aes(std::vector<std::uint8_t>(16)).hardware());
  expect_known_answers(/*force_portable=*/false);
}

TEST(AesPaths, HardwareAgreesWithPortableOnRandomKeysAndBlocks) {
  if (!cpu_features().aes) GTEST_SKIP() << "CPUID reports no AES-NI";
  Rng rng(0xae5);
  for (int k = 0; k < 64; ++k) {
    const auto key = rng.bytes(16);
    const Aes hw(key);
    const Aes sw(key, /*force_portable=*/true);
    for (int b = 0; b < 8; ++b) {
      const auto in = rng.bytes(16);
      std::array<std::uint8_t, 16> x{}, y{};
      hw.encrypt_block(in.data(), x.data());
      sw.encrypt_block(in.data(), y.data());
      ASSERT_EQ(x, y) << "encrypt, key " << k;
      hw.decrypt_block(in.data(), x.data());
      sw.decrypt_block(in.data(), y.data());
      ASSERT_EQ(x, y) << "decrypt, key " << k;
    }
    // CBC over 0..63 bytes: every pad length, one to four blocks.
    const auto iv = rng.bytes(16);
    const auto data = rng.bytes(static_cast<std::size_t>(k));
    const auto c_hw = aes_cbc_encrypt(hw, iv, data);
    ASSERT_EQ(c_hw, aes_cbc_encrypt(sw, iv, data));
    std::vector<std::uint8_t> p_hw, p_sw;
    ASSERT_TRUE(aes_cbc_decrypt(hw, iv, c_hw, p_hw));
    ASSERT_TRUE(aes_cbc_decrypt(sw, iv, c_hw, p_sw));
    ASSERT_EQ(p_hw, data);
    ASSERT_EQ(p_sw, data);
  }
}

TEST(AesPaths, RecordCbcCorpusDecryptsTheSameOnBothPaths) {
  if (!cpu_features().aes) GTEST_SKIP() << "CPUID reports no AES-NI";
  // The record_cbc fuzz seeds and 64 mutants of each, under the fuzz
  // fixture's key. An input whose tail (after the mode byte) has the shape
  // iv || ciphertext is decrypted and unpadded on both paths; any other
  // tail is encrypted as a plaintext, so every input reaches both ciphers.
  const Aes hw(fuzz::kFuzzEncKey);
  const Aes sw(fuzz::kFuzzEncKey, /*force_portable=*/true);
  std::size_t files = 0, decrypted = 0, valid_pads = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           PHISSL_CORPUS_DIR "/record_cbc")) {
    std::ifstream f(entry.path(), std::ios::binary);
    const std::vector<std::uint8_t> seed(std::istreambuf_iterator<char>(f),
                                         {});
    ++files;
    for (std::uint64_t k = 0; k <= 64; ++k) {
      const auto input = k == 0 ? seed : fuzz::mutate_bytes(seed, k);
      const std::span<const std::uint8_t> tail =
          std::span<const std::uint8_t>(input).subspan(
              std::min<std::size_t>(1, input.size()));
      if (tail.size() >= 32 && tail.size() % 16 == 0) {
        std::vector<std::uint8_t> out_hw, out_sw;
        const bool ok_hw = aes_cbc_decrypt(hw, tail.first(16),
                                           tail.subspan(16), out_hw);
        const bool ok_sw = aes_cbc_decrypt(sw, tail.first(16),
                                           tail.subspan(16), out_sw);
        ASSERT_EQ(ok_hw, ok_sw) << entry.path() << " mutant " << k;
        ASSERT_EQ(out_hw, out_sw) << entry.path() << " mutant " << k;
        ++decrypted;
        valid_pads += ok_hw ? 1 : 0;
      } else {
        const std::array<std::uint8_t, 16> iv{};
        const auto c_hw = aes_cbc_encrypt(hw, iv, tail);
        ASSERT_EQ(c_hw, aes_cbc_encrypt(sw, iv, tail))
            << entry.path() << " mutant " << k;
      }
    }
  }
  EXPECT_GE(files, 6u);
  EXPECT_GT(decrypted, 0u);
  EXPECT_GT(valid_pads, 0u);  // the sealed seed's pad validates
}

/// Bytes an object leaves in its storage after its destructor ran, and
/// the bytes it held while alive. The storage starts as a fixed pattern.
template <typename T>
struct Remains {
  std::array<unsigned char, sizeof(T)> live{};
  std::array<unsigned char, sizeof(T)> dead{};
};

template <typename T, typename Build>
Remains<T> remains(Build build) {
  alignas(T) unsigned char storage[sizeof(T)];
  std::fill(std::begin(storage), std::end(storage), 0xa5);
  T* obj = build(static_cast<void*>(storage));
  Remains<T> r;
  std::memcpy(r.live.data(), storage, sizeof storage);
  obj->~T();
  asm volatile("" : : "r"(storage) : "memory");
  std::memcpy(r.dead.data(), storage, sizeof storage);
  return r;
}

template <std::size_t N>
bool contains(const std::array<unsigned char, N>& hay,
              const std::vector<std::uint8_t>& needle) {
  return std::search(hay.begin(), hay.end(), needle.begin(), needle.end()) !=
         hay.end();
}

TEST(AesWipe, DestructorLeavesNoKeyByte) {
  // Two keys on the same path: whatever differs between the two objects
  // is key-derived. After destruction nothing may differ, and the raw
  // key may not appear.
  Rng rng(0x31be);
  for (const bool portable : paths()) {
    const auto k1 = rng.bytes(Aes::kKeySize);
    const auto k2 = rng.bytes(Aes::kKeySize);
    const auto a = remains<Aes>(
        [&](void* p) { return ::new (p) Aes(k1, portable); });
    const auto b = remains<Aes>(
        [&](void* p) { return ::new (p) Aes(k2, portable); });
    EXPECT_NE(a.live, b.live) << "live ciphers should hold their keys";
    EXPECT_EQ(a.dead, b.dead) << "key-derived bytes survived, portable="
                              << portable;
    EXPECT_FALSE(contains(a.dead, std::vector<std::uint8_t>(k1.begin(),
                                                            k1.begin() + 4)));
  }
}

}  // namespace
}  // namespace phissl::util
