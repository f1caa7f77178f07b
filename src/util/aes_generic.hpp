// Word-generic, constant-time AES-128 (FIPS 197): util::Aes's fallback
// when the CPU has no AES-NI. Speed is not the goal.
//
// The cipher is bitsliced: a 16-byte state is eight planes, plane j
// holding bit j of state byte p (FIPS order: row p % 4, column p / 4) at
// bit p. SubBytes is inversion in GF(2^8) as x^254, by a fixed chain of
// plane-wide squarings and products, then the affine map; ShiftRows and
// MixColumns are masked shifts. There is no table, and every loop bound
// and shift count is a public constant, so no branch or load address
// depends on the key or the data.
//
// Like util/ct_bytes.hpp, each function is written once over a 32-bit
// word type W: util::Aes instantiates std::uint32_t, and ct_check_test
// replays key expansion, encryption and decryption over
// ct::Tainted<std::uint32_t> secret words, requiring zero violations and
// the native output. The table S-box this replaced is a negative control
// in src/ct/leaky.hpp.
//
// phissl:ct-kernel — tools/phissl_lint.py bans raw index extraction here.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace phissl::util::aesct {

constexpr std::size_t kRounds = 10;
/// Round key r is the eight planes rk[8r .. 8r + 8).
constexpr std::size_t kRoundKeyWords = 8 * (kRounds + 1);

template <typename W>
using Planes = std::array<W, 8>;

/// Bitslices n <= 16 word-widened bytes.
template <typename W>
Planes<W> pack(const W* bytes, std::size_t n) {
  Planes<W> s{};
  for (unsigned j = 0; j < 8; ++j) {
    for (std::size_t p = 0; p < n; ++p) {
      s[j] = s[j] | (((bytes[p] >> j) & 1u) << p);
    }
  }
  return s;
}

/// Inverse of pack for the first n bytes.
template <typename W>
void unpack(const Planes<W>& s, W* bytes, std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    W acc{};
    for (unsigned j = 0; j < 8; ++j) acc = acc | (((s[j] >> p) & 1u) << j);
    bytes[p] = acc;
  }
}

/// Folds a 15-plane polynomial product below degree 8 with
/// x^8 = x^4 + x^3 + x + 1 (the AES field polynomial 0x11b).
template <typename W>
Planes<W> reduce(std::array<W, 15>& c) {
  for (std::size_t k = 14; k >= 8; --k) {
    c[k - 4] = c[k - 4] ^ c[k];
    c[k - 5] = c[k - 5] ^ c[k];
    c[k - 7] = c[k - 7] ^ c[k];
    c[k - 8] = c[k - 8] ^ c[k];
  }
  return {c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]};
}

/// Bytewise GF(2^8) product.
template <typename W>
Planes<W> gf_mul(const Planes<W>& a, const Planes<W>& b) {
  std::array<W, 15> c{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) c[i + j] = c[i + j] ^ (a[i] & b[j]);
  }
  return reduce(c);
}

/// Bytewise GF(2^8) square: linear, bit i moves to bit 2i.
template <typename W>
Planes<W> gf_sqr(const Planes<W>& a) {
  std::array<W, 15> c{};
  for (std::size_t i = 0; i < 8; ++i) c[2 * i] = a[i];
  return reduce(c);
}

/// Bytewise inverse as x^254 (0 maps to 0, as AES requires).
template <typename W>
Planes<W> gf_inv(const Planes<W>& x) {
  const Planes<W> x2 = gf_sqr(x);
  const Planes<W> x3 = gf_mul(x2, x);
  const Planes<W> x12 = gf_sqr(gf_sqr(x3));
  Planes<W> y = gf_mul(x12, x3);              // x^15
  for (int i = 0; i < 4; ++i) y = gf_sqr(y);  // x^240
  return gf_mul(gf_mul(y, x12), x2);          // x^254
}

/// A constant byte sets every position of its set planes (only the first
/// n positions are ever unpacked).
constexpr std::uint32_t kAll = 0xffff;

/// SubBytes: inversion, then b ^ rotl(b, 1..4) ^ 0x63 per byte.
template <typename W>
Planes<W> sub_bytes(const Planes<W>& s) {
  const Planes<W> b = gf_inv(s);
  Planes<W> out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = b[i] ^ b[(i + 4) & 7] ^ b[(i + 5) & 7] ^ b[(i + 6) & 7] ^
             b[(i + 7) & 7];
    if ((0x63u >> i) & 1u) out[i] = out[i] ^ kAll;  // public constant bit
  }
  return out;
}

/// InvSubBytes: rotl(s, 1) ^ rotl(s, 3) ^ rotl(s, 6) ^ 0x05, then inversion.
template <typename W>
Planes<W> inv_sub_bytes(const Planes<W>& s) {
  Planes<W> b;
  for (std::size_t i = 0; i < 8; ++i) {
    b[i] = s[(i + 7) & 7] ^ s[(i + 5) & 7] ^ s[(i + 2) & 7];
    if ((0x05u >> i) & 1u) b[i] = b[i] ^ kAll;  // public constant bit
  }
  return gf_inv(b);
}

/// Row r (bits r, r+4, r+8, r+12 of a plane) turns left by r columns
/// (ShiftRows) or right by r columns (InvShiftRows).
template <typename W>
void shift_rows(Planes<W>& s, bool inverse) {
  for (auto& x : s) {
    W out = x & 0x1111u;
    for (unsigned r = 1; r < 4; ++r) {
      const std::uint32_t mask = 0x1111u << r;
      const W row = x & mask;
      const unsigned down = inverse ? 16 - 4 * r : 4 * r;
      out = out | (((row >> down) | (row << (16 - down))) & mask);
    }
    x = out;
  }
}

/// The byte at row r of each column takes the byte at row r + k.
template <typename W>
W col_rot(W x, unsigned k) {
  const std::uint32_t low = 0x1111u * ((1u << (4 - k)) - 1);
  return ((x >> k) & low) | ((x << (4 - k)) & (0xffffu ^ low));
}

/// Bytewise multiplication by x (xtime).
template <typename W>
Planes<W> xtime(const Planes<W>& a) {
  return {a[7],        a[0] ^ a[7], a[1], a[2] ^ a[7],
          a[3] ^ a[7], a[4],        a[5], a[6]};
}

/// MixColumns: b_r = 2(a_r ^ a_{r+1}) ^ a_{r+1} ^ a_{r+2} ^ a_{r+3}.
template <typename W>
Planes<W> mix_columns(const Planes<W>& a) {
  Planes<W> r1, t;
  for (std::size_t i = 0; i < 8; ++i) {
    r1[i] = col_rot(a[i], 1);
    t[i] = a[i] ^ r1[i];
  }
  Planes<W> b = xtime(t);
  for (std::size_t i = 0; i < 8; ++i) b[i] = b[i] ^ r1[i] ^ col_rot(t[i], 2);
  return b;
}

/// InvMixColumns as {05,00,04,00} followed by MixColumns (the two
/// circulant matrices multiply to {0e,0b,0d,09}).
template <typename W>
Planes<W> inv_mix_columns(const Planes<W>& a) {
  Planes<W> u;
  for (std::size_t i = 0; i < 8; ++i) u[i] = a[i] ^ col_rot(a[i], 2);
  const Planes<W> u4 = xtime(xtime(u));
  for (std::size_t i = 0; i < 8; ++i) u[i] = a[i] ^ u4[i];
  return mix_columns(u);
}

template <typename W>
void add_round_key(Planes<W>& s, const W* k) {
  for (std::size_t i = 0; i < 8; ++i) s[i] = s[i] ^ k[i];
}

/// AES-128 key expansion into kRoundKeyWords words. `key` holds the 16 key
/// bytes word-widened and is overwritten with the last round key, so the
/// caller owns (and wipes) every copy of the key.
template <typename W>
void expand_key(W* key, W* rk) {
  const Planes<W> first = pack(key, 16);
  std::copy(first.begin(), first.end(), rk);
  std::uint32_t rcon = 1;
  for (std::size_t round = 1; round <= kRounds; ++round) {
    // SubWord(RotWord(last word)) ^ Rcon.
    W t[4] = {key[13], key[14], key[15], key[12]};
    unpack(sub_bytes(pack(t, 4)), t, 4);
    t[0] = t[0] ^ rcon;
    for (std::size_t i = 0; i < 4; ++i) key[i] = key[i] ^ t[i];
    for (std::size_t i = 4; i < 16; ++i) key[i] = key[i] ^ key[i - 4];
    const Planes<W> k = pack(key, 16);
    std::copy(k.begin(), k.end(), rk + 8 * round);
    rcon = ((rcon << 1) ^ ((rcon >> 7) * 0x11bu)) & 0xffu;  // public
  }
}

/// Encrypts one block of 16 word-widened bytes; out may alias in.
template <typename W>
void encrypt(const W* rk, const W* in, W* out) {
  Planes<W> s = pack(in, 16);
  add_round_key(s, rk);
  for (std::size_t round = 1; round <= kRounds; ++round) {
    s = sub_bytes(s);
    shift_rows(s, /*inverse=*/false);
    if (round != kRounds) s = mix_columns(s);
    add_round_key(s, rk + 8 * round);
  }
  unpack(s, out, 16);
}

/// Decrypts one block (the FIPS 197 inverse cipher); out may alias in.
template <typename W>
void decrypt(const W* rk, const W* in, W* out) {
  Planes<W> s = pack(in, 16);
  add_round_key(s, rk + 8 * kRounds);
  for (std::size_t round = kRounds; round-- > 0;) {
    shift_rows(s, /*inverse=*/true);
    s = inv_sub_bytes(s);
    add_round_key(s, rk + 8 * round);
    if (round != 0) s = inv_mix_columns(s);
  }
  unpack(s, out, 16);
}

}  // namespace phissl::util::aesct
