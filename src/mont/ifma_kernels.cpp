#include "mont/ifma_kernels.hpp"

#if defined(__AVX512IFMA__) && defined(__AVX512F__)
#define PHISSL_IFMA_LIVE 1
#else
#define PHISSL_IFMA_LIVE 0
#endif

#if PHISSL_IFMA_LIVE

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

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

// Lanes [0, k) of a register.
inline __mmask8 low_lanes(std::size_t k) {
  return static_cast<__mmask8>((1u << k) - 1);
}

// Lanes k of the result take lane k + S of the 16-lane pair (lo, hi)
// (valignq). The all-lanes maskz form spares GCC 12 a false
// uninitialized warning about the plain intrinsic's pass-through operand.
template <int S>
inline __m512i alignr(__m512i hi, __m512i lo) {
  return _mm512_maskz_alignr_epi64(0xFF, hi, lo, S);
}

}  // namespace

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

// Truncated REDC of the normalized 2d-row product t, lane-wise:
// r52::redc_trunc_g's arithmetic, band-scanned.
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
  // in registers, then the diagonal squares added — r52::mont_sqr_g's
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

// -- Carry normalization --------------------------------------------------
//
// A column sum leaving an almost-Montgomery product holds at most
// 52 + log2(4d) bits, and a word-serial carry pass over it would be a
// chain of dependent add-shift-mask steps. Instead, one vector round adds
// every column's bits above 52 into the next lane (valignq carries lane 7
// across registers), which leaves each lane below 2^52 + 2^12, so at most
// a carry of 1 still leaves any lane. Those carries ripple through bit
// masks: lane k GENERATES when it is >= 2^52 and PROPAGATES when it is
// exactly 2^52 - 1 (never both), and the lanes that receive a carry are
// ((G << 1) + P) ^ P — one 64-bit add per 64 lanes. Nothing branches on
// digit values.

namespace {

// Carry ripple over one chunk of `lanes` <= 64 lanes. gen and prop are
// disjoint lane bit masks; `carry` enters into lane 0 and leaves as the
// carry out of lane lanes-1. Returns the lanes that receive one.
inline std::uint64_t ripple(std::uint64_t gen, std::uint64_t prop,
                            std::size_t lanes, std::uint64_t& carry) {
  const std::uint64_t a = (gen << 1) | carry;
  const std::uint64_t s = a + prop;
  // Below 64 lanes the carry out lands in bit `lanes` of s; at 64 it is
  // the top generate bit or the add's own overflow (they never coincide:
  // an overflow needs lane 63 to propagate).
  carry = lanes == 64 ? (gen >> 63) | static_cast<std::uint64_t>(s < a)
                      : (s >> lanes) & 1;
  return s ^ prop;
}

// Carry-normalizes the column sums v[0, N) into 52-bit digits at
// dst[0, 8N); returns the carry out of the top lane. Every loop unrolls
// fully, so v stays in registers.
template <std::size_t N>
std::uint64_t normalize(const __m512i (&v)[N], std::uint64_t* dst) {
  const __m512i vmask = bcast(kMask);
  __m512i hi_prev = _mm512_setzero_si512();
  std::uint64_t carry = 0;
#pragma GCC unroll kAmmRegisters
  for (std::size_t b0 = 0; b0 < N; b0 += 8) {
    const std::size_t nb = std::min<std::size_t>(8, N - b0);
    std::uint64_t gen = 0;
    std::uint64_t prop = 0;
#pragma GCC unroll 8
    for (std::size_t b = 0; b < nb; ++b) {
      // All-lanes maskz form: the GCC 12 warning workaround of alignr.
      const __m512i hi = _mm512_maskz_srli_epi64(0xFF, v[b0 + b], kDb);
      const __m512i x = _mm512_add_epi64(_mm512_and_si512(v[b0 + b], vmask),
                                         alignr<7>(hi, hi_prev));
      hi_prev = hi;
      store(dst + 8 * (b0 + b), x);
      gen |= std::uint64_t{_mm512_cmpgt_epu64_mask(x, vmask)} << (8 * b);
      prop |= std::uint64_t{_mm512_cmpeq_epu64_mask(x, vmask)} << (8 * b);
    }
    const std::uint64_t fix = ripple(gen, prop, 8 * nb, carry);
#pragma GCC unroll 8
    for (std::size_t b = 0; b < nb; ++b) {
      std::uint64_t* w = dst + 8 * (b0 + b);
      const __m512i x = load(w);
      store(w, _mm512_and_si512(
                   _mm512_mask_add_epi64(
                       x, static_cast<__mmask8>(fix >> (8 * b)), x, bcast(1)),
                   vmask));
    }
  }
  // Lane 7 of the top register's high bits, which no lane above absorbed.
  const __m128i top = _mm512_extracti32x4_epi32(hi_prev, 3);
  return carry + static_cast<std::uint64_t>(_mm_extract_epi64(top, 1));
}

// -- Almost-Montgomery mode -----------------------------------------------
//
// r52::amm_g's digit-serial almost-Montgomery product, for H = 1 or 2
// halves at once. Each half keeps its whole accumulator in N registers
// (lane j = column j of the running sum) and its column 0 in a scalar
// register as well: per digit b_i, the scalar side forms
// acc + a_0*b_i, the quotient digit y = that * k0 mod 2^52, and the exact
// (acc + a_0*b_i + n_0*y) >> 52 with 64x64 multiplies, while the vector
// side adds the low halves of a*b_i and n*y, shifts every lane down one
// column (valignq), and adds the high halves. Lane 0 of the vector is
// read once, right after the shift, into the scalar; what the vector adds
// to lane 0 afterwards is already in the scalar and is shifted out
// unread. The only serial chain per digit runs through y; with two halves
// the chains, interleaved digit by digit, hide each other's latency. One
// carry normalization per product at the end; no conditional subtract
// (see amm_g for the 2n bound). Nothing branches on digit values; the
// quotient digits come from multiplies and masks. Every loop over the
// registers unrolls fully: an accumulator indexed at run time would live
// in memory.

template <std::size_t N>
struct AmmHalf {
  __m512i r[N];
  std::uint64_t acc = 0;  // column 0; lane 0 of r[0] is stale

  AmmHalf() {
#pragma GCC unroll kAmmRegisters
    for (std::size_t k = 0; k < N; ++k) r[k] = _mm512_setzero_si512();
  }

  // One digit of b: acc, r <- (acc, r + a*bi + n*y) / beta.
  inline void step(const std::uint64_t* a, const std::uint64_t* n,
                   std::uint64_t bi, std::uint64_t k0) {
    const __m512i vb = bcast(bi);
    unsigned __int128 s = static_cast<unsigned __int128>(a[0]) * bi + acc;
    const std::uint64_t y = (static_cast<std::uint64_t>(s) * k0) & kMask;
    const __m512i vy = bcast(y);
    s += static_cast<unsigned __int128>(n[0]) * y;
    acc = static_cast<std::uint64_t>(s >> kDb);
#pragma GCC unroll kAmmRegisters
    for (std::size_t k = 0; k < N; ++k) {
      r[k] = _mm512_madd52lo_epu64(r[k], vb, load(a + 8 * k));
      r[k] = _mm512_madd52lo_epu64(r[k], vy, load(n + 8 * k));
    }
#pragma GCC unroll kAmmRegisters
    for (std::size_t k = 0; k + 1 < N; ++k) r[k] = alignr<1>(r[k + 1], r[k]);
    r[N - 1] = alignr<1>(_mm512_setzero_si512(), r[N - 1]);
    acc += static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm512_castsi512_si128(r[0])));
#pragma GCC unroll kAmmRegisters
    for (std::size_t k = 0; k < N; ++k) {
      r[k] = _mm512_madd52hi_epu64(r[k], vb, load(a + 8 * k));
      r[k] = _mm512_madd52hi_epu64(r[k], vy, load(n + 8 * k));
    }
  }

  // Column 0 from the scalar, then the one carry normalization.
  void finish(std::uint64_t* out) {
    r[0] = _mm512_mask_set1_epi64(r[0], 1, static_cast<long long>(acc));
    [[maybe_unused]] const std::uint64_t top = normalize(r, out);
    assert(top == 0);
  }
};

// H halves of N registers each, half 1 at word offset 8*N. The halves are
// two named objects, not an array, so each one's scalar column stays in a
// register across the loop.
template <std::size_t N, std::size_t H>
void amm_n(const std::uint64_t* a, const std::uint64_t* b,
           const std::uint64_t* n, const std::uint64_t* k0, std::size_t d,
           std::uint64_t* out) {
  static_assert((H == 1 || H == 2) && N * H <= kAmmRegisters);
  constexpr std::size_t kHalf = 8 * N;
  AmmHalf<N> p;
  AmmHalf<N> q;  // unused when H == 1
  for (std::size_t i = 0; i < d; ++i) {
    p.step(a, n, b[i], k0[0]);
    if constexpr (H == 2) {
      q.step(a + kHalf, n + kHalf, b[kHalf + i], k0[1]);
    }
  }
  p.finish(out);
  if constexpr (H == 2) q.finish(out + kHalf);
}

using AmmFn = void (*)(const std::uint64_t*, const std::uint64_t*,
                       const std::uint64_t*, const std::uint64_t*,
                       std::size_t, std::uint64_t*);

// amm_n<1, H> .. amm_n<kAmmRegisters / H, H>, by register count.
template <std::size_t H, std::size_t... I>
constexpr std::array<AmmFn, sizeof...(I)> amm_table(
    std::index_sequence<I...>) {
  return {amm_n<I + 1, H>...};
}

// Words [w0, w0 + 8R) of table[idx] (clipped at `end`) into out, in R
// registers over one scan of the whole table: every entry is loaded, and
// one vector compare per entry decides, as a mask, whether it is kept.
template <std::size_t R>
void gather_block(const std::vector<std::uint64_t>* table, std::size_t count,
                  std::size_t w0, std::size_t end, std::uint32_t idx,
                  std::uint64_t* out) {
  __m512i acc[R];
  __mmask8 live[R];  // lanes inside [w0, end); depends on sizes only
#pragma GCC unroll 16
  for (std::size_t k = 0; k < R; ++k) {
    live[k] = low_lanes(std::min<std::size_t>(8, end - (w0 + 8 * k)));
    acc[k] = _mm512_setzero_si512();
  }
  const __m512i vidx = bcast(idx);
  __m512i ve = _mm512_setzero_si512();
  for (std::size_t e = 0; e < count; ++e) {
    const __mmask8 hit = _mm512_cmpeq_epu64_mask(vidx, ve);
    const std::uint64_t* entry = table[e].data() + w0;
#pragma GCC unroll 16
    for (std::size_t k = 0; k < R; ++k) {
      const __m512i v = _mm512_maskz_loadu_epi64(live[k], entry + 8 * k);
      acc[k] = _mm512_mask_or_epi64(acc[k], hit, acc[k], v);
    }
    ve = _mm512_add_epi64(ve, bcast(1));
  }
#pragma GCC unroll 16
  for (std::size_t k = 0; k < R; ++k) {
    _mm512_mask_storeu_epi64(out + w0 + 8 * k, live[k], acc[k]);
  }
}

}  // namespace

void amm(const std::uint64_t* a, const std::uint64_t* b,
         const std::uint64_t* n, const std::uint64_t* k0, std::size_t d,
         std::size_t halves, std::uint64_t* out) {
  static constexpr auto kOne =
      amm_table<1>(std::make_index_sequence<kAmmRegisters>{});
  static constexpr auto kTwo =
      amm_table<2>(std::make_index_sequence<kAmmRegisters / 2>{});
  assert((halves == 1 || halves == 2) && d >= 1 &&
         d <= amm_max_digits(halves));
  const std::size_t regs = round_up8(d) / 8;
  (halves == 1 ? kOne[regs - 1] : kTwo[regs - 1])(a, b, n, k0, d, out);
}

void ct_gather(const std::vector<std::uint64_t>* table, std::size_t count,
               std::size_t words, std::uint32_t idx_lo, std::uint32_t idx_hi,
               std::size_t split, std::uint64_t* out) {
  using Fn = void (*)(const std::vector<std::uint64_t>*, std::size_t,
                      std::size_t, std::size_t, std::uint32_t, std::uint64_t*);
  static constexpr Fn kByRegisters[] = {
      gather_block<1>, gather_block<2>, gather_block<3>, gather_block<4>,
      gather_block<5>, gather_block<6>, gather_block<7>, gather_block<8>};
  // [0, split) from idx_lo, [split, words) from idx_hi, each in blocks of
  // up to 8 registers (64 words); the blocks depend on the sizes only.
  const auto range = [&](std::size_t begin, std::size_t end,
                         std::uint32_t idx) {
    for (std::size_t w0 = begin; w0 < end; w0 += 64) {
      const std::size_t regs = (std::min<std::size_t>(64, end - w0) + 7) / 8;
      kByRegisters[regs - 1](table, count, w0, end, idx, out);
    }
  };
  range(0, std::min(split, words), idx_lo);
  range(std::min(split, words), words, idx_hi);
}

}  // namespace phissl::mont::ifma

#else  // !PHISSL_IFMA_LIVE

#include <cstdlib>

namespace phissl::mont::ifma {

bool compiled() { return false; }

// The dispatch layers (IfmaAmmCtx, BatchIfmaMontCtx) never call these
// when compiled() is false; aborting keeps any future misuse loud instead
// of silently wrong.
namespace {
[[noreturn]] void unavailable() { std::abort(); }
}  // namespace

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
void amm(const std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
         const std::uint64_t*, std::size_t, std::size_t, std::uint64_t*) {
  unavailable();
}
void ct_gather(const std::vector<std::uint64_t>*, std::size_t, std::size_t,
               std::uint32_t, std::uint32_t, std::size_t, std::uint64_t*) {
  unavailable();
}

}  // namespace phissl::mont::ifma

#endif  // PHISSL_IFMA_LIVE
