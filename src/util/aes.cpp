#include "util/aes.hpp"

#include <stdexcept>

#include "util/aes_generic.hpp"
#include "util/cpu.hpp"
#include "util/ct_bytes.hpp"
#include "util/wipe.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define PHISSL_AES_NI 1
#include <immintrin.h>
#else
#define PHISSL_AES_NI 0
#endif

namespace phissl::util {

namespace {

constexpr std::size_t kB = Aes::kBlockSize;
static_assert(aesct::kRoundKeyWords == 88);

void bitsliced_block(const std::uint32_t* rk, bool enc, const std::uint8_t* in,
                     std::uint8_t* out) {
  std::uint32_t w[kB];
  for (std::size_t i = 0; i < kB; ++i) w[i] = in[i];
  if (enc) {
    aesct::encrypt(rk, w, w);
  } else {
    aesct::decrypt(rk, w, w);
  }
  for (std::size_t i = 0; i < kB; ++i) out[i] = static_cast<std::uint8_t>(w[i]);
}

#if PHISSL_AES_NI

#define PHISSL_AES_TARGET __attribute__((target("aes,sse2")))

PHISSL_AES_TARGET inline __m128i expand_step(__m128i key, __m128i assist) {
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, _mm_shuffle_epi32(assist, 0xff));
}

/// rk[0..10]: encryption round keys; rk[11..21]: the equivalent inverse
/// cipher's (aesimc of the middle nine, in reverse order).
PHISSL_AES_TARGET void ni_expand(const std::uint8_t* key, __m128i* rk) {
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  rk[0] = k;
  // aeskeygenassist takes Rcon as an immediate.
#define PHISSL_AES_STEP(i, rcon) \
  rk[i] = k = expand_step(k, _mm_aeskeygenassist_si128(k, rcon))
  PHISSL_AES_STEP(1, 0x01);
  PHISSL_AES_STEP(2, 0x02);
  PHISSL_AES_STEP(3, 0x04);
  PHISSL_AES_STEP(4, 0x08);
  PHISSL_AES_STEP(5, 0x10);
  PHISSL_AES_STEP(6, 0x20);
  PHISSL_AES_STEP(7, 0x40);
  PHISSL_AES_STEP(8, 0x80);
  PHISSL_AES_STEP(9, 0x1b);
  PHISSL_AES_STEP(10, 0x36);
#undef PHISSL_AES_STEP
  __m128i* dk = rk + 11;
  dk[0] = rk[10];
  for (int i = 1; i < 10; ++i) dk[i] = _mm_aesimc_si128(rk[10 - i]);
  dk[10] = rk[0];
}

PHISSL_AES_TARGET void ni_block(const std::uint32_t* round_keys, bool enc,
                                const std::uint8_t* in, std::uint8_t* out) {
  const auto* rk =
      reinterpret_cast<const __m128i*>(round_keys) + (enc ? 0 : 11);
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)), rk[0]);
  for (int r = 1; r < 10; ++r) {
    s = enc ? _mm_aesenc_si128(s, rk[r]) : _mm_aesdec_si128(s, rk[r]);
  }
  s = enc ? _mm_aesenclast_si128(s, rk[10]) : _mm_aesdeclast_si128(s, rk[10]);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

#endif  // PHISSL_AES_NI

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key, bool force_portable)
    : hardware_(PHISSL_AES_NI && !force_portable && cpu_features().aes) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("Aes: key must be 16 bytes (AES-128)");
  }
#if PHISSL_AES_NI
  if (hardware_) {
    ni_expand(key.data(), reinterpret_cast<__m128i*>(rk_.data()));
    return;
  }
#endif
  std::uint32_t w[kKeySize];
  for (std::size_t i = 0; i < kKeySize; ++i) w[i] = key[i];
  aesct::expand_key(w, rk_.data());
  secure_wipe(w, sizeof w);
}

Aes::~Aes() { secure_wipe(rk_.data(), sizeof rk_); }

void Aes::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
#if PHISSL_AES_NI
  if (hardware_) return ni_block(rk_.data(), true, in, out);
#endif
  bitsliced_block(rk_.data(), true, in, out);
}

void Aes::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
#if PHISSL_AES_NI
  if (hardware_) return ni_block(rk_.data(), false, in, out);
#endif
  bitsliced_block(rk_.data(), false, in, out);
}

std::vector<std::uint8_t> aes_cbc_encrypt(
    const Aes& cipher, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> plaintext) {
  if (iv.size() != kB) {
    throw std::invalid_argument("aes_cbc_encrypt: iv must be 16 bytes");
  }
  // PKCS#7 pad to a whole number of blocks (always adds 1..16 bytes).
  const std::size_t pad = kB - plaintext.size() % kB;
  std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
  buf.insert(buf.end(), pad, static_cast<std::uint8_t>(pad));

  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < buf.size(); off += kB) {
    for (std::size_t i = 0; i < kB; ++i) buf[off + i] ^= chain[i];
    cipher.encrypt_block(&buf[off], &buf[off]);
    chain = &buf[off];
  }
  return buf;
}

bool aes_cbc_decrypt(const Aes& cipher, std::span<const std::uint8_t> iv,
                     std::span<const std::uint8_t> ciphertext,
                     std::vector<std::uint8_t>& out) {
  out.clear();
  if (iv.size() != kB) {
    throw std::invalid_argument("aes_cbc_decrypt: iv must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % kB != 0) {
    throw std::invalid_argument("aes_cbc_decrypt: bad ciphertext length");
  }
  std::vector<std::uint8_t> buf(ciphertext.size());
  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < buf.size(); off += kB) {
    cipher.decrypt_block(&ciphertext[off], &buf[off]);
    for (std::size_t i = 0; i < kB; ++i) buf[off + i] ^= chain[i];
    chain = &ciphertext[off];
  }
  // Branch-free PKCS#7 unpad: the shared word-generic kernel in
  // util/ct_bytes.hpp (the shadow-taint checker replays the same template
  // with tainted words — ct_check_test certifies it branch- and
  // index-free). The classic padding oracle (Vaudenay 2002) needs the
  // validator to stop at the first bad pad byte; the kernel folds every
  // candidate pad position into one accumulator instead, so all invalid
  // paddings cost the same.
  std::uint32_t tail[kB];
  for (std::size_t i = 0; i < kB; ++i) tail[i] = buf[buf.size() - kB + i];
  const auto pc = ctb::cbc_pad_check(tail, kB);
  const bool pad_valid = pc.valid_mask != 0;
  // RFC 5246 §6.2.3.2 countermeasure shape: on invalid padding, hand back
  // the WHOLE decrypted buffer (zero-length-pad semantics — pc.strip is
  // pre-masked to 0) instead of nothing, so a MAC-then-encrypt caller can
  // still run its constant-time MAC check and fail on that single,
  // uniform signal.
  buf.resize(buf.size() - pc.strip);
  out = std::move(buf);
  return pad_valid;
}

}  // namespace phissl::util
