#include "util/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/cpu.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define PHISSL_SHA_NI 1
#include <immintrin.h>
#else
#define PHISSL_SHA_NI 0
#endif

namespace phissl::util {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

void compress_portable(std::uint32_t* state, const std::uint8_t* block,
                       std::size_t nblocks) {
  for (; nblocks != 0; --nblocks, block += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] +
                               w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if PHISSL_SHA_NI

// SHA-NI compress: sha256rnds2 runs two rounds on the state held as the
// (ABEF, CDGH) register pair; sha256msg1/msg2 extend the schedule.
//
// The SHA instructions have no VEX form, so a CPU that charges legacy-SSE
// code for dirty upper vector state charges every round here. One
// -march=native build on the 4-vCPU IFMA guest took 11.8-12.3 us per block
// that way, against 63 ns after a vzeroupper. So the compress clears the
// upper state on entry when the CPU has AVX (without AVX it cannot be
// dirty, and vzeroupper would fault).
template <bool kClearUpper>
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* block, std::size_t nblocks) {
  if constexpr (kClearUpper) {
    asm volatile("vzeroupper" ::: "xmm0", "xmm1", "xmm2", "xmm3", "xmm4",
                 "xmm5", "xmm6", "xmm7", "xmm8", "xmm9", "xmm10", "xmm11",
                 "xmm12", "xmm13", "xmm14", "xmm15");
  }
  // Big-endian message words.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* st = reinterpret_cast<const __m128i*>(state);
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128(st), 0xb1);      // CDAB
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128(st + 1), 0x1b);  // EFGH
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);                         // ABEF
  s1 = _mm_blend_epi16(s1, t, 0xf0);                              // CDGH

  for (; nblocks != 0; --nblocks, block += Sha256::kBlockSize) {
    const __m128i abef = s0;
    const __m128i cdgh = s1;
    __m128i m[4];
    // 16 groups of four rounds. Group g consumes schedule words m[g % 4];
    // msg1 starts the words of group g + 3 and msg2 finishes those of
    // group g + 1.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
            bswap);
      }
      __m128i msg = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(
                   &kK[static_cast<std::size_t>(4 * g)])));
      s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
      if (g >= 3 && g < 15) {
        __m128i& next = m[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
      if (g >= 1 && g < 13) {
        m[(g - 1) & 3] = _mm_sha256msg1_epu32(m[(g - 1) & 3], cur);
      }
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  t = _mm_shuffle_epi32(s0, 0x1b);                          // FEBA
  s1 = _mm_shuffle_epi32(s1, 0xb1);                         // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(t, s1, 0xf0));           // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state) + 1,
                   _mm_alignr_epi8(s1, t, 8));              // HGFE
}

#endif  // PHISSL_SHA_NI

using Compress = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// The compress this process runs, chosen once from CPUID.
Compress default_compress() {
  static const Compress c = [] {
#if PHISSL_SHA_NI
    const CpuFeatures& f = cpu_features();
    if (f.sha) return f.avx ? &compress_shani<true> : &compress_shani<false>;
#endif
    return &compress_portable;
  }();
  return c;
}

}  // namespace

Sha256::Sha256(bool force_portable)
    : compress_(force_portable ? &compress_portable : default_compress()) {
  reset();
}

bool Sha256::hardware() const { return compress_ != &compress_portable; }

void Sha256::reset() {
  state_ = kInit;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null data() pointer, and memcpy requires
  // non-null arguments even for a zero count.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ != 0) {
    const std::size_t take = std::min(data.size(), kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == kBlockSize) {
      compress_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - off) / kBlockSize;
  if (whole != 0) {
    compress_(state_.data(), data.data() + off, whole);
    off += whole * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length, written straight
  // into the block buffer.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
              buffer_.end(), std::uint8_t{0});
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
            buffer_.end() - 8, std::uint8_t{0});
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 1 - i] =
        static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace phissl::util
