// Differential oracle against the host's libcrypto (built only when CMake
// finds OpenSSL): the dual-modulus CRT exponentiation against
// BN_mod_exp_mont_consttime_x2 — libcrypto's own two-halves-at-once
// exponentiation — with halves of 512, 1024 and 2048 bits, and the
// single-stream ifma52 fixed-window exponentiation against BN_mod_exp.
// Inputs: seeded random bases plus 0, 1 and m-1, against the exponents
// 1, 2, m-2 and a random one of the modulus size.
//
// The record layer's primitives against libcrypto's: SHA-256 on both
// compress paths against EVP_Digest, HMAC-SHA256 against HMAC, the TLS
// PRF against the TLS1-PRF KDF, and ssl::RecordChannel's seal and open
// against EVP_aes_128_cbc plus HMAC, over lengths 0-4 KiB, with tampered
// MAC and pad bytes rejected on both sides.
#include <gtest/gtest.h>

#include <openssl/bn.h>
#include <openssl/core_names.h>
#include <openssl/crypto.h>
#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/kdf.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "ssl/prf.hpp"
#include "ssl/record.hpp"
#include "util/hmac.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace phissl::mont {
namespace {

using bigint::BigInt;

struct BnFree {
  void operator()(BIGNUM* b) const { BN_free(b); }
};
struct BnCtxFree {
  void operator()(BN_CTX* c) const { BN_CTX_free(c); }
};
struct MontFree {
  void operator()(BN_MONT_CTX* m) const { BN_MONT_CTX_free(m); }
};
using Bn = std::unique_ptr<BIGNUM, BnFree>;

Bn to_bn(const BigInt& x) {
  const std::vector<std::uint8_t> be = x.to_bytes_be();
  return Bn(BN_bin2bn(be.data(), static_cast<int>(be.size()), nullptr));
}

BigInt from_bn(const BIGNUM* x) {
  std::vector<std::uint8_t> be(static_cast<std::size_t>(BN_num_bytes(x)));
  BN_bn2bin(x, be.data());
  return BigInt::from_bytes_be(be);
}

/// The bases and exponents the oracle compares for one modulus.
struct Inputs {
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
};

Inputs inputs_for(const BigInt& m, util::Rng& rng) {
  Inputs in;
  in.bases = {BigInt{}, BigInt{1}, m - BigInt{1}};
  for (int i = 0; i < 3; ++i) in.bases.push_back(BigInt::random_below(m, rng));
  in.exps = {BigInt{1}, BigInt{2}, m - BigInt{2},
             BigInt::random_bits(m.bit_length(), rng)};
  return in;
}

TEST(LibcryptoOracle, PairMatchesConsttimeX2) {
  const std::unique_ptr<BN_CTX, BnCtxFree> bn_ctx(BN_CTX_new());
  ASSERT_TRUE(bn_ctx);
  for (const std::size_t bits :
       {std::size_t{512}, std::size_t{1024}, std::size_t{2048}}) {
    util::Rng rng(0x0c1a + bits);
    const BigInt p = BigInt::random_odd_exact_bits(bits, rng);
    const BigInt q = BigInt::random_odd_exact_bits(bits, rng);
    const Inputs ip = inputs_for(p, rng);
    const Inputs iq = inputs_for(q, rng);
    const Bn bp = to_bn(p), bq = to_bn(q);
    const std::unique_ptr<BN_MONT_CTX, MontFree> mp(BN_MONT_CTX_new()),
        mq(BN_MONT_CTX_new());
    ASSERT_TRUE(BN_MONT_CTX_set(mp.get(), bp.get(), bn_ctx.get()) == 1 &&
                BN_MONT_CTX_set(mq.get(), bq.get(), bn_ctx.get()) == 1);
    const IfmaPairCtx pair(p, q);
    const IfmaPairCtx portable(p, q, /*force_portable=*/true);
    ExpWorkspace<IfmaPairCtx> ws;
    const Bn r1(BN_new()), r2(BN_new());
    for (std::size_t b = 0; b < ip.bases.size(); ++b) {
      for (std::size_t e = 0; e < ip.exps.size(); ++e) {
        const BigInt& xp = ip.bases[b];
        const BigInt& xq = iq.bases[b];
        const BigInt& ep = ip.exps[e];
        const BigInt& eq = iq.exps[e];
        ASSERT_EQ(BN_mod_exp_mont_consttime_x2(
                      r1.get(), to_bn(xp).get(), to_bn(ep).get(), bp.get(),
                      mp.get(), r2.get(), to_bn(xq).get(), to_bn(eq).get(),
                      bq.get(), mq.get(), bn_ctx.get()),
                  1);
        const BigInt want_p = from_bn(r1.get());
        const BigInt want_q = from_bn(r2.get());
        for (const IfmaPairCtx* ctx : {&pair, &portable}) {
          BigInt got_p, got_q;
          fixed_window_exp_pair(*ctx, xp, xq, ep, eq, got_p, got_q, ws);
          EXPECT_EQ(got_p, want_p) << bits << " base " << b << " exp " << e
                                   << " portable " << (ctx == &portable);
          EXPECT_EQ(got_q, want_q) << bits << " base " << b << " exp " << e
                                   << " portable " << (ctx == &portable);
        }
      }
    }
  }
}

TEST(LibcryptoOracle, Ifma52FixedWindowMatchesModExp) {
  const std::unique_ptr<BN_CTX, BnCtxFree> bn_ctx(BN_CTX_new());
  ASSERT_TRUE(bn_ctx);
  for (const std::size_t bits :
       {std::size_t{512}, std::size_t{1024}, std::size_t{2048}}) {
    util::Rng rng(0x0c1b + bits);
    const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
    const Inputs in = inputs_for(m, rng);
    const Bn bm = to_bn(m);
    const IfmaMontCtx ctx(m);
    ExpWorkspace<IfmaMontCtx> ws;
    const Bn r(BN_new());
    for (const BigInt& x : in.bases) {
      for (const BigInt& e : in.exps) {
        ASSERT_EQ(BN_mod_exp(r.get(), to_bn(x).get(), to_bn(e).get(), bm.get(),
                             bn_ctx.get()),
                  1);
        BigInt got;
        fixed_window_exp(ctx, x, e, got, ws);
        EXPECT_EQ(got, from_bn(r.get()))
            << bits << " x=" << x.to_hex() << " e=" << e.to_hex();
      }
    }
  }
}

}  // namespace
}  // namespace phissl::mont

namespace phissl::ssl {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Message lengths 0-4 KiB: every length through two blocks, then a
/// stride that lands on every residue mod 16, then the end.
std::vector<std::size_t> lengths_to_4k() {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n <= 64; ++n) out.push_back(n);
  for (std::size_t n = 65; n < 4096; n += 61) out.push_back(n);
  out.push_back(4096);
  return out;
}

Bytes ossl_hmac(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> data) {
  static const std::uint8_t kNone = 0;  // HMAC wants a non-null key
  Bytes out(EVP_MAX_MD_SIZE);
  unsigned int n = 0;
  const bool ok =
      HMAC(EVP_sha256(), key.empty() ? &kNone : key.data(),
           static_cast<int>(key.size()), data.data(), data.size(), out.data(),
           &n) != nullptr;
  EXPECT_TRUE(ok);
  out.resize(n);
  return out;
}

TEST(LibcryptoOracle, Sha256MatchesEvpDigest) {
  util::Rng rng(0x05a2);
  const Bytes msg = rng.bytes(4096);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    std::uint8_t want[EVP_MAX_MD_SIZE];
    unsigned int n = 0;
    ASSERT_EQ(EVP_Digest(msg.data(), len, want, &n, EVP_sha256(), nullptr),
              1);
    ASSERT_EQ(n, util::Sha256::kDigestSize);
    for (const bool portable : {false, true}) {
      util::Sha256 h(portable);
      h.update(std::span<const std::uint8_t>(msg).first(len));
      const auto got = h.finish();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want))
          << "len=" << len << " portable=" << portable;
    }
  }
}

TEST(LibcryptoOracle, HmacSha256MatchesHmac) {
  util::Rng rng(0x0c4a);
  const Bytes msg = rng.bytes(4096);
  for (const std::size_t key_len : {0u, 1u, 16u, 32u, 48u, 63u, 64u, 65u,
                                    131u}) {
    const Bytes key = rng.bytes(key_len);
    const util::HmacSha256 keyed(key);
    for (const std::size_t len : lengths_to_4k()) {
      const auto data = std::span<const std::uint8_t>(msg).first(len);
      util::HmacSha256 h = keyed;
      h.update(data);
      const auto got = h.finish();
      ASSERT_EQ(Bytes(got.begin(), got.end()), ossl_hmac(key, data))
          << "key_len=" << key_len << " len=" << len;
    }
  }
}

TEST(LibcryptoOracle, PrfMatchesTls1PrfKdf) {
  struct KdfFree {
    void operator()(EVP_KDF* k) const { EVP_KDF_free(k); }
  };
  struct KdfCtxFree {
    void operator()(EVP_KDF_CTX* c) const { EVP_KDF_CTX_free(c); }
  };
  const std::unique_ptr<EVP_KDF, KdfFree> kdf(
      EVP_KDF_fetch(nullptr, "TLS1-PRF", nullptr));
  ASSERT_TRUE(kdf);
  util::Rng rng(0x0f2f);
  for (const std::size_t secret_len : {16u, 32u, 48u, 64u, 80u}) {
    const Bytes secret = rng.bytes(secret_len);
    for (const std::string label :
         {"master secret", "key expansion", "client finished", "test label"}) {
      const Bytes seed = rng.bytes(label == "client finished" ? 32 : 64);
      for (const std::size_t len : {1u, 12u, 31u, 32u, 33u, 48u, 104u, 200u}) {
        Bytes label_seed(label.begin(), label.end());
        label_seed.insert(label_seed.end(), seed.begin(), seed.end());
        const std::unique_ptr<EVP_KDF_CTX, KdfCtxFree> ctx(
            EVP_KDF_CTX_new(kdf.get()));
        ASSERT_TRUE(ctx);
        char digest[] = "SHA256";
        const OSSL_PARAM params[] = {
            OSSL_PARAM_construct_utf8_string(OSSL_KDF_PARAM_DIGEST, digest, 0),
            OSSL_PARAM_construct_octet_string(
                OSSL_KDF_PARAM_SECRET, const_cast<std::uint8_t*>(secret.data()),
                secret.size()),
            OSSL_PARAM_construct_octet_string(OSSL_KDF_PARAM_SEED,
                                              label_seed.data(),
                                              label_seed.size()),
            OSSL_PARAM_construct_end()};
        Bytes want(len);
        ASSERT_EQ(EVP_KDF_derive(ctx.get(), want.data(), want.size(), params),
                  1);
        EXPECT_EQ(prf_sha256(secret, label, seed, len), want)
            << label << " secret_len=" << secret_len << " len=" << len;
      }
    }
  }
}

/// seq_num || type || version || length || fragment (RFC 5246 §6.2.3.1).
Bytes mac_input(std::uint64_t seq, std::span<const std::uint8_t> pt) {
  Bytes m;
  for (int i = 0; i < 8; ++i) {
    m.push_back(static_cast<std::uint8_t>(seq >> (56 - 8 * i)));
  }
  m.insert(m.end(), {kContentApplicationData, 3, 3,
                     static_cast<std::uint8_t>(pt.size() >> 8),
                     static_cast<std::uint8_t>(pt.size())});
  m.insert(m.end(), pt.begin(), pt.end());
  return m;
}

struct CipherCtxFree {
  void operator()(EVP_CIPHER_CTX* c) const { EVP_CIPHER_CTX_free(c); }
};

/// libcrypto's seal: iv || AES-128-CBC(pt || HMAC || PKCS#7 pad), with the
/// plaintext-side byte at `tamper_at` flipped before encryption.
Bytes evp_seal(const SessionKeys& k, std::uint64_t seq,
               std::span<const std::uint8_t> pt,
               std::span<const std::uint8_t> iv,
               std::optional<std::size_t> tamper_at = std::nullopt) {
  Bytes body(pt.begin(), pt.end());
  const Bytes mac = ossl_hmac(k.client_mac_key, mac_input(seq, pt));
  body.insert(body.end(), mac.begin(), mac.end());
  const std::size_t pad = 16 - body.size() % 16;
  body.insert(body.end(), pad, static_cast<std::uint8_t>(pad));
  if (tamper_at) body[*tamper_at] ^= 0x01;

  const std::unique_ptr<EVP_CIPHER_CTX, CipherCtxFree> ctx(
      EVP_CIPHER_CTX_new());
  Bytes out(iv.begin(), iv.end());
  out.resize(iv.size() + body.size());
  int n = 0, fin = 0;
  EXPECT_EQ(EVP_EncryptInit_ex(ctx.get(), EVP_aes_128_cbc(), nullptr,
                               k.client_enc_key.data(), iv.data()),
            1);
  EVP_CIPHER_CTX_set_padding(ctx.get(), 0);  // padded above
  EXPECT_EQ(EVP_EncryptUpdate(ctx.get(), out.data() + iv.size(), &n,
                              body.data(), static_cast<int>(body.size())),
            1);
  EXPECT_EQ(EVP_EncryptFinal_ex(ctx.get(), out.data() + iv.size() + n, &fin),
            1);
  EXPECT_EQ(static_cast<std::size_t>(n + fin), body.size());
  return out;
}

/// libcrypto's open: EVP's PKCS#7 check, then the MAC, compared with
/// CRYPTO_memcmp. nullopt when either fails.
std::optional<Bytes> evp_open(const SessionKeys& k, std::uint64_t seq,
                              std::span<const std::uint8_t> record) {
  if (record.size() < 16 + 48 || record.size() % 16 != 0) return std::nullopt;
  const std::unique_ptr<EVP_CIPHER_CTX, CipherCtxFree> ctx(
      EVP_CIPHER_CTX_new());
  Bytes out(record.size());
  int n = 0, fin = 0;
  EXPECT_EQ(EVP_DecryptInit_ex(ctx.get(), EVP_aes_128_cbc(), nullptr,
                               k.client_enc_key.data(), record.data()),
            1);
  EXPECT_EQ(EVP_DecryptUpdate(ctx.get(), out.data(), &n, record.data() + 16,
                              static_cast<int>(record.size() - 16)),
            1);
  if (EVP_DecryptFinal_ex(ctx.get(), out.data() + n, &fin) != 1) {
    return std::nullopt;  // bad padding
  }
  const std::size_t body = static_cast<std::size_t>(n + fin);
  if (body < 32) return std::nullopt;
  const std::span<const std::uint8_t> pt(out.data(), body - 32);
  const Bytes want = ossl_hmac(k.client_mac_key, mac_input(seq, pt));
  if (CRYPTO_memcmp(want.data(), out.data() + pt.size(), 32) != 0) {
    return std::nullopt;
  }
  return Bytes(pt.begin(), pt.end());
}

SessionKeys random_keys(util::Rng& rng) {
  SessionKeys k{};
  rng.fill_bytes(k.client_enc_key.data(), k.client_enc_key.size());
  rng.fill_bytes(k.client_mac_key.data(), k.client_mac_key.size());
  return k;
}

TEST(LibcryptoOracle, RecordSealMatchesEvpCbcAndHmac) {
  util::Rng rng(0x5ea1);
  const SessionKeys keys = random_keys(rng);
  RecordChannel sealer(keys.client_enc_key, keys.client_mac_key);
  std::uint64_t seq = 0;
  for (const std::size_t len : lengths_to_4k()) {
    const Bytes pt = rng.bytes(len);
    const Bytes record = sealer.seal(kContentApplicationData, pt, rng);
    // Same IV, same bytes: the seal is exactly libcrypto's CBC + HMAC.
    EXPECT_EQ(record, evp_seal(keys, seq, pt,
                               std::span<const std::uint8_t>(record).first(16)))
        << "len=" << len;
    EXPECT_EQ(evp_open(keys, seq, record), pt) << "len=" << len;
    ++seq;
  }
}

TEST(LibcryptoOracle, RecordOpenMatchesEvpCbcAndHmac) {
  util::Rng rng(0x09e2);
  const SessionKeys keys = random_keys(rng);
  RecordChannel opener(keys.client_enc_key, keys.client_mac_key);
  std::uint64_t seq = 0;
  for (const std::size_t len : lengths_to_4k()) {
    const Bytes pt = rng.bytes(len);
    const Bytes iv = rng.bytes(16);
    const std::size_t body = len + 32;
    const std::size_t padded = body + 16 - body % 16;
    // A MAC byte, the pad-length byte, and (when the pad is longer than
    // one byte) a pad byte before it.
    std::vector<std::size_t> tampers = {len + rng.next_u32() % 32, padded - 1};
    if (padded - body > 1) tampers.push_back(padded - 2);
    for (const std::size_t at : tampers) {
      const Bytes bad = evp_seal(keys, seq, pt, iv, at);
      EXPECT_FALSE(evp_open(keys, seq, bad).has_value()) << len << "@" << at;
      EXPECT_FALSE(opener.open(kContentApplicationData, bad).has_value())
          << len << "@" << at;
    }
    // Rejections leave the sequence alone: the genuine record still opens.
    const auto got = opener.open(kContentApplicationData,
                                 evp_seal(keys, seq, pt, iv));
    ASSERT_TRUE(got.has_value()) << "len=" << len;
    EXPECT_EQ(*got, pt);
    ++seq;
  }
}

}  // namespace
}  // namespace phissl::ssl
