// Deliberately-leaky fixtures — negative controls for the checker.
//
// A constant-time checker that never fires is indistinguishable from one
// that checks nothing. These two kernels are the textbook leaky shapes
// the hardened schedules in modexp.hpp exist to replace; the harness runs
// them under taint and asserts that violations ARE recorded:
//
//   - leaky_square_and_multiply: branches on every exponent bit — the
//     classic timing leak (Kocher 1996). Expect one kBranch per examined
//     bit (the branch is evaluated whether or not it is taken).
//   - leaky_fixed_window: same window schedule as fixed_window_exp_rep
//     but with a DIRECT table lookup instead of the masked gather — the
//     cache-line leak (Percival 2005). Expect one kIndex per window.
//
// Test fixtures only. Never call these with real key material.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ct/taint.hpp"
#include "mont/modexp.hpp"

namespace phissl::ct {

/// MSB-first square-and-multiply that multiplies only when the exponent
/// bit is set. `if (exp.bit(i))` on a tainted bit records kBranch.
template <typename Ctx, typename Exp>
void leaky_square_and_multiply(const Ctx& ctx, const typename Ctx::Rep& base,
                               const Exp& exp, typename Ctx::Rep& out,
                               mont::ExpWorkspace<Ctx>& ws) {
  out = ctx.one_mont_rep();
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    ctx.sqr(out, ws.tmp, ws.kernel);
    out.swap(ws.tmp);
    if (exp.bit(i)) {  // LEAK: control flow follows a secret bit
      ctx.mul(out, base, ws.tmp, ws.kernel);
      out.swap(ws.tmp);
    }
  }
}

// ---- Record-layer / key-transport negative controls ---------------------
//
// The byte-scanning shapes the branch-free kernels in util/ct_bytes.hpp
// replaced. Each leaks in the textbook way its production counterpart is
// certified not to; ct_check_test pins the exact violation kinds/counts.

/// Branches on a secret word: the Tainted<bool> conversion records
/// kBranch; the native overload lets fixtures compile both ways.
inline bool nonzero_branch(std::uint32_t x) { return x != 0; }
inline bool nonzero_branch(TW32 x) {
  return static_cast<bool>(TBool(x.v != 0, x.secret));
}

/// Early-exit RSAES-PKCS1-v1_5 separator scan — the pre-hardening shape
/// of rsaes_pkcs1_v15_unpad: stops at the first zero byte, so the number
/// of bytes examined (and the timing) reveals the separator position
/// (a Bleichenbacher refinement signal). Expect one kBranch per examined
/// byte. Returns the separator index, 0 when none found.
template <typename W>
std::size_t leaky_pkcs1_unpad_scan(const W* em, std::size_t len) {
  for (std::size_t i = 2; i < len; ++i) {
    if (!nonzero_branch(em[i])) return i;  // LEAK: early exit on secret byte
  }
  return 0;
}

/// Classic early-exit PKCS#7 pad validator (the shape Vaudenay 2002
/// attacks): extracts the pad length as a loop bound — a secret-derived
/// index/count, kIndex — then compares pad bytes one at a time with an
/// early exit, kBranch per byte examined.
template <typename W>
bool leaky_cbc_pad_check(const W* tail, std::size_t block) {
  const std::size_t pad = index_value(tail[block - 1]);  // LEAK: kIndex
  if (pad == 0 || pad > block) return false;
  for (std::size_t i = 1; i <= pad; ++i) {
    // LEAK: per-byte early exit on secret data.
    if (nonzero_branch(tail[block - i] ^ static_cast<std::uint32_t>(pad))) {
      return false;
    }
  }
  return true;
}

// ---- Cipher negative control --------------------------------------------

/// The AES S-box as the table AES used it (FIPS 197 Figure 7).
inline constexpr std::uint8_t kLeakySbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

/// The table AES's SubBytes (util::Aes before the bitsliced fallback in
/// util/aes_generic.hpp; its key schedule ran the same lookup in
/// SubWord): one load per byte at an address the secret byte selects, the
/// cache-timing channel of Bernstein 2005 and Osvik-Shamir-Tromer 2006.
/// Expect one kIndex per byte.
template <typename W>
void leaky_table_sub_bytes(const W* in, std::uint32_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = kLeakySbox[index_value(in[i])];  // LEAK: secret-indexed load
  }
}

/// Fixed-window schedule with a naive table[index] lookup: the load
/// address depends on the window value, so index_value() records kIndex
/// once per window under taint. Contrast with fixed_window_exp_rep,
/// which gathers via ct_table_select and extracts no index at all.
template <typename Ctx, typename Exp>
void leaky_fixed_window(const Ctx& ctx, const typename Ctx::Rep& base,
                        const Exp& exp, int window, typename Ctx::Rep& out,
                        mont::ExpWorkspace<Ctx>& ws) {
  const std::size_t w = static_cast<std::size_t>(window);
  const std::size_t tsize = std::size_t{1} << w;
  if (ws.table.size() < tsize) ws.table.resize(tsize);
  ws.table[0] = ctx.one_mont_rep();
  ws.table[1] = base;
  for (std::size_t e = 2; e < tsize; ++e) {
    ctx.mul(ws.table[e - 1], base, ws.table[e], ws.kernel);
  }

  const std::size_t bits = exp.bit_length();
  const std::size_t nwin = (bits + w - 1) / w;
  // LEAK: secret-indexed load on every window.
  out = ws.table[index_value(exp.bits_window((nwin - 1) * w, w))];
  for (std::size_t win = nwin - 1; win-- > 0;) {
    for (std::size_t s = 0; s < w; ++s) {
      ctx.sqr(out, ws.tmp, ws.kernel);
      out.swap(ws.tmp);
    }
    const std::uint32_t idx = index_value(exp.bits_window(win * w, w));
    ctx.mul(out, ws.table[idx], ws.tmp, ws.kernel);
    out.swap(ws.tmp);
  }
}

}  // namespace phissl::ct
