#include "mont/ifma_kernels.hpp"

#if defined(__AVX512IFMA__) && defined(__AVX512F__)
#define PHISSL_IFMA_LIVE 1
#else
#define PHISSL_IFMA_LIVE 0
#endif

#if PHISSL_IFMA_LIVE

#include <immintrin.h>

#include <algorithm>
#include <cassert>

#include "mont/radix52_kernel.hpp"

namespace phissl::mont::ifma {

bool compiled() { return true; }

namespace {

constexpr std::uint64_t kMask = r52::kDigitMask;
constexpr unsigned kDb = r52::kDigitBits;

inline __m512i bcast(std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}
inline __m512i load(const std::uint64_t* p) {
  return _mm512_loadu_si512(static_cast<const void*>(p));
}
inline void store(std::uint64_t* p, __m512i v) {
  _mm512_storeu_si512(static_cast<void*>(p), v);
}

inline std::size_t round_up8(std::size_t x) {
  return (x + 7) & ~std::size_t{7};
}

// -- Latency mode ---------------------------------------------------------
//
// All three product sweeps (full A*B, quotient T_lo*mu, upper Q*N) are
// COLUMN-blocked: each 8-column block accumulates its entire value in four
// register chains and stores once, so no store-to-load forwarding chain
// connects the rows (the row-major formulation serializes on exactly that
// and runs several times slower). Column k of the block takes low halves
// of the digit products at band k (operand offset c-i) and high halves of
// band k-1 (offset c-i-1); the load operand is padded with zeros on both
// sides so every offset is in bounds and out-of-range digits vanish.

// cols[c..c+8) = column sums of bc * ld for every block c in
// [c_begin, c_end), blocks overwritten (not accumulated). bc: d plain
// digits, broadcast per row. ld: padded pointer (see header contract).
void product_blocks(const std::uint64_t* bc, const std::uint64_t* ld,
                    std::ptrdiff_t d, std::size_t c_begin, std::size_t c_end,
                    std::uint64_t* cols) {
  for (std::size_t c = c_begin; c < c_end; c += 8) {
    const std::ptrdiff_t sc = static_cast<std::ptrdiff_t>(c);
    std::ptrdiff_t i = sc >= d ? sc - d : 0;
    const std::ptrdiff_t i1 = std::min(d - 1, sc + 7);
    __m512i a0lo = _mm512_setzero_si512();
    __m512i a0hi = a0lo, a1lo = a0lo, a1hi = a0lo;
    for (; i + 1 <= i1; i += 2) {
      const __m512i va0 = bcast(bc[i]);
      const __m512i va1 = bcast(bc[i + 1]);
      const __m512i v0 = load(ld + (sc - i));
      const __m512i v1 = load(ld + (sc - i - 1));  // band k-1 for row i,
      const __m512i v2 = load(ld + (sc - i - 2));  // band k for row i+1
      a0lo = _mm512_madd52lo_epu64(a0lo, va0, v0);
      a0hi = _mm512_madd52hi_epu64(a0hi, va0, v1);
      a1lo = _mm512_madd52lo_epu64(a1lo, va1, v1);
      a1hi = _mm512_madd52hi_epu64(a1hi, va1, v2);
    }
    if (i == i1) {
      const __m512i va = bcast(bc[i]);
      a0lo = _mm512_madd52lo_epu64(a0lo, va, load(ld + (sc - i)));
      a0hi = _mm512_madd52hi_epu64(a0hi, va, load(ld + (sc - i - 1)));
    }
    store(cols + c, _mm512_add_epi64(_mm512_add_epi64(a0lo, a1lo),
                                     _mm512_add_epi64(a0hi, a1hi)));
  }
}

// Carry-normalizes `count` column sums into 52-bit digits; returns the
// final carry.
std::uint64_t normalize_cols(const std::uint64_t* cols, std::size_t count,
                             std::uint64_t* t) {
  std::uint64_t carry = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t v = cols[k] + carry;
    t[k] = v & kMask;
    carry = v >> kDb;
  }
  return carry;
}

// Shared truncated REDC over the normalized product digits t[0..2d).
void redc(const std::uint64_t* t, const std::uint64_t* np,
          const std::uint64_t* mup, std::size_t d, std::uint64_t* cols,
          std::uint64_t* q, std::uint64_t* out) {
  const std::ptrdiff_t sd = static_cast<std::ptrdiff_t>(d);

  // Q = T_lo * mu mod R: columns < d only; the final carry is dropped.
  product_blocks(t, mup, sd, 0, round_up8(d), cols);
  {
    std::uint64_t carry = 0;
    for (std::size_t k = 0; k < d; ++k) {
      const std::uint64_t v = cols[k] + carry;
      q[k] = v & kMask;
      carry = v >> kDb;  // dropped past column d-1: mod R
    }
  }

  // Upper product Q*N: only the blocks from the one containing column d-2
  // upward — columns below it are never read.
  product_blocks(q, np, sd, (d - 2) & ~std::size_t{7}, round_up8(2 * d),
                 cols);

  // Exact low-half carry c3 = ceil of the two-column fixed-point estimate
  // (see radix52_kernel.hpp: the dropped tail is < 2d/2^52 < 1 and the
  // true carry is an integer, so the ceiling is exact).
  const std::uint64_t x = cols[d - 2] + t[d - 2];
  const std::uint64_t y = cols[d - 1] + t[d - 1];
  const unsigned __int128 s =
      (static_cast<unsigned __int128>(y & kMask) << kDb) + x;
  const std::uint64_t frac_low = static_cast<std::uint64_t>(s);
  const std::uint64_t frac_mid = static_cast<std::uint64_t>(s >> 64) &
                                 ((std::uint64_t{1} << 40) - 1);
  const std::uint64_t c3 = (y >> kDb) + static_cast<std::uint64_t>(s >> 104) +
                           static_cast<std::uint64_t>((frac_low | frac_mid) != 0);

  // result = T_hi + floor(Q*N / R) + c3, then one conditional subtract.
  std::uint64_t carry = c3;
  for (std::size_t k = 0; k < d; ++k) {
    const std::uint64_t v = cols[d + k] + t[d + k] + carry;
    out[k] = v & kMask;
    carry = v >> kDb;
  }
  assert(carry <= 1);
  r52::ct_sub_mod52_g(out, carry, np, d);
}

}  // namespace

void mul(const std::uint64_t* a, const std::uint64_t* bp,
         const std::uint64_t* np, const std::uint64_t* mup, std::size_t d,
         std::uint64_t* cols, std::uint64_t* t, std::uint64_t* q,
         std::uint64_t* out) {
  product_blocks(a, bp, static_cast<std::ptrdiff_t>(d), 0, round_up8(2 * d),
                 cols);
  [[maybe_unused]] const std::uint64_t top = normalize_cols(cols, 2 * d, t);
  assert(top == 0);
  redc(t, np, mup, d, cols, q, out);
}

void sqr(const std::uint64_t* ap, const std::uint64_t* np,
         const std::uint64_t* mup, std::size_t d, std::uint64_t* cols,
         std::uint64_t* t, std::uint64_t* q, std::uint64_t* out) {
  const std::ptrdiff_t sd = static_cast<std::ptrdiff_t>(d);

  // Off-diagonal products (j > i) accumulated once per block, the block
  // doubled in registers, then the diagonal a_i^2 added scalar. 2*a_i
  // cannot be fed to vpmadd52 (it reads only 52 operand bits), so the
  // doubling happens on the accumulated sums, where headroom is free.
  // Rows are unmasked while 2i+2 <= c (every block lane is a j > i pair)
  // and finish with per-row masks at the diagonal boundary.
  for (std::size_t c = 0; c < round_up8(2 * d); c += 8) {
    const std::ptrdiff_t sc = static_cast<std::ptrdiff_t>(c);
    std::ptrdiff_t i = sc >= sd ? sc - sd : 0;
    const std::ptrdiff_t i1 = std::min(sd - 1, (sc + 6) / 2);
    const std::ptrdiff_t fe = std::min(i1, (sc - 2) / 2);
    __m512i a0lo = _mm512_setzero_si512();
    __m512i a0hi = a0lo, a1lo = a0lo, a1hi = a0lo;
    for (; i + 1 <= fe; i += 2) {
      const __m512i va0 = bcast(ap[i]);
      const __m512i va1 = bcast(ap[i + 1]);
      const __m512i v0 = load(ap + (sc - i));
      const __m512i v1 = load(ap + (sc - i - 1));
      const __m512i v2 = load(ap + (sc - i - 2));
      a0lo = _mm512_madd52lo_epu64(a0lo, va0, v0);
      a0hi = _mm512_madd52hi_epu64(a0hi, va0, v1);
      a1lo = _mm512_madd52lo_epu64(a1lo, va1, v1);
      a1hi = _mm512_madd52hi_epu64(a1hi, va1, v2);
    }
    if (i == fe) {
      const __m512i va = bcast(ap[i]);
      a0lo = _mm512_madd52lo_epu64(a0lo, va, load(ap + (sc - i)));
      a0hi = _mm512_madd52hi_epu64(a0hi, va, load(ap + (sc - i - 1)));
      ++i;
    }
    for (; i <= i1; ++i) {
      const __m512i va = bcast(ap[i]);
      const std::ptrdiff_t s_lo = 2 * i + 1 - sc;  // lanes k >= 2i+1: j > i
      if (s_lo <= 7) {
        a0lo = _mm512_mask_madd52lo_epu64(
            a0lo, static_cast<__mmask8>(0xFFu << s_lo), va,
            load(ap + (sc - i)));
      }
      const std::ptrdiff_t s_hi = s_lo + 1;  // high halves sit one lane up
      if (s_hi <= 7) {
        a0hi = _mm512_mask_madd52hi_epu64(
            a0hi, static_cast<__mmask8>(0xFFu << s_hi), va,
            load(ap + (sc - i - 1)));
      }
    }
    const __m512i sum = _mm512_add_epi64(_mm512_add_epi64(a0lo, a1lo),
                                         _mm512_add_epi64(a0hi, a1hi));
    store(cols + c, _mm512_add_epi64(sum, sum));
  }
  for (std::size_t i = 0; i < d; ++i) {
    const unsigned __int128 p =
        static_cast<unsigned __int128>(ap[i]) * ap[i];
    cols[2 * i] += static_cast<std::uint64_t>(p) & kMask;
    cols[2 * i + 1] += static_cast<std::uint64_t>(p >> kDb);
  }
  [[maybe_unused]] const std::uint64_t top = normalize_cols(cols, 2 * d, t);
  assert(top == 0);
  redc(t, np, mup, d, cols, q, out);
}

// -- Batch mode -----------------------------------------------------------
//
// 16 independent lanes, digit j of lane l at rep[j*16 + l]: one digit row
// is two 8-lane registers (halves h = 0, 1). Every sweep is BAND-SCANNED
// in blocks of four output columns: while the rows i stream past,
// column k of the block sums the low halves of band k (a_i * b_{k-i}) in
// one register chain and the high halves of band k-1 (a_i * b_{k-1-i}) in
// another, per half — 16 independent vpmadd52 chains over both halves.
// The block's columns are then carry-normalized in registers and each
// stored once as a digit row. The band operand b is read past either end
// of its d digits, where its padding is zero, so every row runs the same
// unmasked body and products outside the d x d square add zero; the rows
// a block takes are exactly those with a product inside the square. The
// only branches and indices are on k, i and d, never on digit values.

namespace {

constexpr std::ptrdiff_t kLanes = 16;  // lanes per batch (2 x 8-lane halves)
constexpr int kCols = 4;               // output columns per block
// Blocks read b from digit -kCols up to digit d + kCols - 1.
static_assert(kBatchPad >= kCols);

// Digit row j of a 16-lane operand, half h.
struct LaneRows {
  const std::uint64_t* p;
  [[nodiscard]] __m512i get(std::ptrdiff_t j, int h) const {
    return load(p + j * kLanes + 8 * h);
  }
};

// A digit every lane shares (modulus, mu): one broadcast serves both halves.
struct SharedDigits {
  const std::uint64_t* p;
  [[nodiscard]] __m512i get(std::ptrdiff_t j, int /*h*/) const {
    return bcast(p[j]);
  }
};

// The register chains of one block of kCols columns starting at k0.
struct Block {
  std::ptrdiff_t k0;
  __m512i lo[kCols][2];
  __m512i hi[kCols][2];

  explicit Block(std::ptrdiff_t first) : k0(first) {
    for (int c = 0; c < kCols; ++c) {
      for (int h = 0; h < 2; ++h) {
        lo[c][h] = _mm512_setzero_si512();
        hi[c][h] = _mm512_setzero_si512();
      }
    }
  }

  // Rows [i, end): for every column k = k0 + c, a_i * b_{k-i} (low half)
  // and a_i * b_{k-1-i} (high half). The band digits slide down by one
  // per row, so each row loads one new b digit per half; bj holds the
  // previous row's before the shift.
  template <class A, class B>
  void add_rows(const A& a, const B& b, std::ptrdiff_t i,
                std::ptrdiff_t end) {
    __m512i bj[2][kCols + 1];
    for (int h = 0; h < 2; ++h) {
      for (int c = 0; c < kCols; ++c) bj[h][c] = b.get(k0 - i + c, h);
      bj[h][kCols] = _mm512_setzero_si512();
    }
    for (; i < end; ++i) {
      for (int h = 0; h < 2; ++h) {
        for (int c = kCols; c > 0; --c) bj[h][c] = bj[h][c - 1];
        bj[h][0] = b.get(k0 - 1 - i, h);
        const __m512i ai = a.get(i, h);
        for (int c = 0; c < kCols; ++c) {
          lo[c][h] = _mm512_madd52lo_epu64(lo[c][h], ai, bj[h][c + 1]);
          hi[c][h] = _mm512_madd52hi_epu64(hi[c][h], ai, bj[h][c]);
        }
      }
    }
  }

  [[nodiscard]] __m512i sum(int c, int h) const {
    return _mm512_add_epi64(lo[c][h], hi[c][h]);
  }
};

// Calls emit(k, h, sum) for each column k in [k_begin, k_end), in order,
// of the d x d digit product a * b (b padded). The block at k0 takes rows
// [max(0, k0-d), min(d, k0+kCols)): every row with a product in it.
template <class A, class B, class Emit>
inline void product_columns(const A& a, const B& b, std::ptrdiff_t d,
                            std::ptrdiff_t k_begin, std::ptrdiff_t k_end,
                            Emit&& emit) {
  for (std::ptrdiff_t k0 = k_begin; k0 < k_end; k0 += kCols) {
    Block blk(k0);
    const std::ptrdiff_t last = std::min(d, k0 + kCols);
    blk.add_rows(a, b, std::max<std::ptrdiff_t>(0, k0 - d), last);
#pragma GCC unroll 8  // constant c keeps blk in registers
    for (int c = 0; c < kCols; ++c) {
      if (k0 + c >= k_end) break;
      for (int h = 0; h < 2; ++h) emit(k0 + c, h, blk.sum(c, h));
    }
  }
}

// Emitter that carry-normalizes column sums into the digit rows of dst.
struct RowWriter {
  std::uint64_t* dst;
  __m512i carry[2] = {_mm512_setzero_si512(), _mm512_setzero_si512()};
  // Stores the 52-bit digit of v + carry as half h of row k; returns it.
  __m512i operator()(std::ptrdiff_t k, int h, __m512i v) {
    v = _mm512_add_epi64(v, carry[h]);
    const __m512i digit = _mm512_and_si512(v, bcast(kMask));
    store(dst + k * kLanes + 8 * h, digit);
    carry[h] = _mm512_srli_epi64(v, kDb);
    return digit;
  }
};

// Copies the d digit rows of x into buf between kBatchPad zero rows on
// each side; returns the padded operand's row 0.
const std::uint64_t* pad_rows(const std::uint64_t* x, std::ptrdiff_t d,
                              std::uint64_t* buf) {
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(kBatchPad) * kLanes;
  std::uint64_t* rows = buf + pad;
  for (std::ptrdiff_t w = 0; w < pad; w += 8) {
    store(buf + w, _mm512_setzero_si512());
    store(rows + d * kLanes + w, _mm512_setzero_si512());
  }
  for (std::ptrdiff_t w = 0; w < d * kLanes; w += 8) {
    store(rows + w, load(x + w));
  }
  return rows;
}

// Exact carry out of the discarded low half, lane-wise, from the raw
// columns x = d-2 and y = d-1 (T_lo included): y >> 52 plus the ceiling
// of s / beta^2, s = (y mod beta) * beta + x. With u = (y mod beta) +
// (x >> 52), s >> 104 = u >> 52, and s mod 2^104 is nonzero iff
// (u mod beta) | (x mod beta) is — a compare mask, so no branch.
inline __m512i low_half_carry(__m512i x, __m512i y) {
  const __m512i vmask = bcast(kMask);
  const __m512i u = _mm512_add_epi64(_mm512_and_si512(y, vmask),
                                     _mm512_srli_epi64(x, kDb));
  const __m512i frac = _mm512_and_si512(_mm512_or_si512(u, x), vmask);
  const __mmask8 nonzero = _mm512_test_epi64_mask(frac, frac);
  const __m512i floor = _mm512_add_epi64(_mm512_srli_epi64(y, kDb),
                                         _mm512_srli_epi64(u, kDb));
  return _mm512_mask_add_epi64(floor, nonzero, floor, bcast(1));
}

// Truncated REDC of the normalized 2d-row product t, lane-wise: the
// arithmetic of redc() above, band-scanned.
void batch_redc(const std::uint64_t* t, const std::uint64_t* n,
                const std::uint64_t* mu, std::ptrdiff_t d, std::uint64_t* q,
                std::uint64_t* out) {
  const LaneRows tr{t};
  const SharedDigits nd{n};

  // Q = T_lo * mu mod R: columns < d only (rows < d, so T_hi stays out);
  // the carry past column d-1 is dropped.
  product_columns(tr, SharedDigits{mu}, d, 0, d, RowWriter{q});

  // Upper product Q*N from column d-2 up. Columns d-2 and d-1 yield c3,
  // which seeds the carry of columns d.. — out = T_hi +
  // floor(Q*N / R) + c3 — and the borrow of out - n is scanned on the way.
  RowWriter w{out};
  __m512i x[2] = {_mm512_setzero_si512(), _mm512_setzero_si512()};
  __m512i borrow[2] = {_mm512_setzero_si512(), _mm512_setzero_si512()};
  product_columns(
      LaneRows{q}, nd, d, d - 2, 2 * d,
      [&](std::ptrdiff_t k, int h, __m512i sum) {
        const __m512i v = _mm512_add_epi64(sum, tr.get(k, h));
        if (k == d - 2) {
          x[h] = v;
        } else if (k == d - 1) {
          w.carry[h] = low_half_carry(x[h], v);
        } else {
          const __m512i digit = w(k - d, h, v);
          const __m512i diff = _mm512_sub_epi64(
              _mm512_sub_epi64(digit, nd.get(k - d, h)), borrow[h]);
          borrow[h] = _mm512_srli_epi64(diff, 63);
        }
      });

  // Constant-time conditional subtract per lane: n is masked in iff the
  // top carry is set or out >= n (no borrow emerged), else out - 0.
  __mmask8 sub[2];
  for (int h = 0; h < 2; ++h) {
    sub[h] = static_cast<__mmask8>(
        _mm512_test_epi64_mask(w.carry[h], w.carry[h]) |
        _mm512_testn_epi64_mask(borrow[h], borrow[h]));
    borrow[h] = _mm512_setzero_si512();
  }
  for (std::ptrdiff_t j = 0; j < d; ++j) {
    for (int h = 0; h < 2; ++h) {
      std::uint64_t* row = out + j * kLanes + 8 * h;
      const __m512i vn =
          _mm512_maskz_set1_epi64(sub[h], static_cast<long long>(n[j]));
      const __m512i diff =
          _mm512_sub_epi64(_mm512_sub_epi64(load(row), vn), borrow[h]);
      store(row, _mm512_and_si512(diff, bcast(kMask)));
      borrow[h] = _mm512_srli_epi64(diff, 63);
    }
  }
}

}  // namespace

void batch_mul(const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* n, const std::uint64_t* mu, std::size_t d,
               std::uint64_t* pad, std::uint64_t* t, std::uint64_t* q,
               std::uint64_t* out) {
  const auto sd = static_cast<std::ptrdiff_t>(d);
  // T = A * B < beta^(2d): no carry leaves column 2d-1.
  product_columns(LaneRows{a}, LaneRows{pad_rows(b, sd, pad)}, sd, 0, 2 * sd,
                  RowWriter{t});
  batch_redc(t, n, mu, sd, q, out);
}

void batch_sqr(const std::uint64_t* a, const std::uint64_t* n,
               const std::uint64_t* mu, std::size_t d, std::uint64_t* pad,
               std::uint64_t* t, std::uint64_t* q, std::uint64_t* out) {
  // Each off-diagonal product a_i * a_j (i < j) once, the columns doubled
  // in registers, then the diagonal squares added — the latency sqr's
  // scheme, band-scanned. Block k0 = 2m (kCols = 4) gets every pair with
  // i < m from whole rows; rows m and m+1 cross the diagonal and add only
  // their pairs with j > i.
  static_assert(kCols == 4, "the diagonal rows below assume 4 columns");
  const auto sd = static_cast<std::ptrdiff_t>(d);
  const LaneRows ar{pad_rows(a, sd, pad)};  // rows >= d read as zero
  RowWriter w{t};
  for (std::ptrdiff_t k0 = 0; k0 < 2 * sd; k0 += kCols) {
    const std::ptrdiff_t m = k0 / 2;
    Block blk(k0);
    blk.add_rows(ar, ar, std::max<std::ptrdiff_t>(0, k0 - sd), m);
    __m512i col[kCols][2];
    for (int h = 0; h < 2; ++h) {
      const __m512i a0 = ar.get(m, h);
      const __m512i a1 = ar.get(m + 1, h);
      const __m512i a2 = ar.get(m + 2, h);
      const __m512i a3 = ar.get(m + 3, h);
      // Row m: low halves into columns k0+1.., high halves into k0+2..
      blk.lo[1][h] = _mm512_madd52lo_epu64(blk.lo[1][h], a0, a1);
      blk.lo[2][h] = _mm512_madd52lo_epu64(blk.lo[2][h], a0, a2);
      blk.lo[3][h] = _mm512_madd52lo_epu64(blk.lo[3][h], a0, a3);
      blk.hi[2][h] = _mm512_madd52hi_epu64(blk.hi[2][h], a0, a1);
      blk.hi[3][h] = _mm512_madd52hi_epu64(blk.hi[3][h], a0, a2);
      // Row m+1: only a_{m+1} * a_{m+2}'s low half, into column k0+3.
      blk.lo[3][h] = _mm512_madd52lo_epu64(blk.lo[3][h], a1, a2);
      for (int c = 0; c < kCols; ++c) {
        const __m512i s = blk.sum(c, h);
        col[c][h] = _mm512_add_epi64(s, s);
      }
      // Diagonal squares: a_m^2 into columns k0, k0+1; a_{m+1}^2 into
      // k0+2, k0+3.
      col[0][h] = _mm512_madd52lo_epu64(col[0][h], a0, a0);
      col[1][h] = _mm512_madd52hi_epu64(col[1][h], a0, a0);
      col[2][h] = _mm512_madd52lo_epu64(col[2][h], a1, a1);
      col[3][h] = _mm512_madd52hi_epu64(col[3][h], a1, a1);
    }
    for (int c = 0; c < kCols; ++c) {
      if (k0 + c >= 2 * sd) break;
      for (int h = 0; h < 2; ++h) w(k0 + c, h, col[c][h]);
    }
  }
  batch_redc(t, n, mu, sd, q, out);
}

}  // namespace phissl::mont::ifma

#else  // !PHISSL_IFMA_LIVE

#include <cstdlib>

namespace phissl::mont::ifma {

bool compiled() { return false; }

// The dispatch layer (IfmaMontCtx) never calls these when compiled() is
// false; aborting keeps any future misuse loud instead of silently wrong.
namespace {
[[noreturn]] void unavailable() { std::abort(); }
}  // namespace

void mul(const std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
         const std::uint64_t*, std::size_t, std::uint64_t*, std::uint64_t*,
         std::uint64_t*, std::uint64_t*) {
  unavailable();
}
void sqr(const std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
         std::size_t, std::uint64_t*, std::uint64_t*, std::uint64_t*,
         std::uint64_t*) {
  unavailable();
}
void batch_mul(const std::uint64_t*, const std::uint64_t*,
               const std::uint64_t*, const std::uint64_t*, std::size_t,
               std::uint64_t*, std::uint64_t*, std::uint64_t*,
               std::uint64_t*) {
  unavailable();
}
void batch_sqr(const std::uint64_t*, const std::uint64_t*,
               const std::uint64_t*, std::size_t, std::uint64_t*,
               std::uint64_t*, std::uint64_t*, std::uint64_t*) {
  unavailable();
}

}  // namespace phissl::mont::ifma

#endif  // PHISSL_IFMA_LIVE
