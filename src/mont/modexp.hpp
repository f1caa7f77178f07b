// Modular exponentiation over any Montgomery context.
//
// Generic over the context type so the same windowed schedules run on
// MontCtx32 (MPSS-like), MontCtx64 (OpenSSL-like), VectorMontCtx
// (PhiOpenSSL) and BatchVectorMontCtx (16-lane batches). Two schedules:
//
//  - fixed_window_exp: the paper's method. Precomputes g^0..g^(2^w - 1),
//    consumes the exponent in fixed w-bit windows MSB-first, and multiplies
//    on EVERY window (including zero windows), with a constant-time table
//    gather — the uniform schedule PhiOpenSSL uses both for SIMD-friendliness
//    and side-channel hygiene.
//  - sliding_window_exp: the classic OpenSSL BN_mod_exp schedule used by
//    both reference engines; precomputes odd powers only and skips runs of
//    zero bits.
//
// fixed_window_exp_pair is the fixed-window schedule over a dual-modulus
// context (IfmaPairCtx): both CRT halves in lockstep, one gather per
// window serving both halves (ct_table_select_split).
//
// A Montgomery context Ctx must provide:
//   using Rep = <vector-like of unsigned words>;
//   struct Workspace;                     (reusable kernel scratch)
//   std::size_t rep_size() const;
//   Rep to_mont(const BigInt&) const;     BigInt from_mont(const Rep&) const;
//   Rep one_mont() const;                 const Rep& one_mont_rep() const;
//   void mul(a, b, out) const;            void sqr(a, out) const;
//   void mul(a, b, out, ws) const;        void sqr(a, out, ws) const;
//   const BigInt& modulus() const;
//
// Every schedule comes in two forms: a value-returning one that allocates
// its own scratch, and an out-param one threaded through an ExpWorkspace —
// after a warm-up call at a given size, the workspace form performs no
// heap allocation at all (table, accumulators and kernel scratch all
// retain capacity).
// The `_rep` schedules are additionally generic over the EXPONENT type:
// anything providing is_negative() / is_zero() / bit_length() /
// bits_window() / bit() works. The default is bigint::BigInt; the
// constant-time checker in src/ct/ passes a tainted-exponent wrapper whose
// bit reads carry a secrecy mark, so the same template that runs in
// production is what gets verified for secret-dependent branches.
//
// phissl:ct-kernel — tools/phissl_lint.py bans raw index extraction here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bigint/bigint.hpp"
#include "obs/trace.hpp"

namespace phissl::mont {

/// Bit width of a residue word. The default covers the built-in integer
/// words; the shadow-taint word types in src/ct/ specialize this.
template <typename Word>
struct WordTraits {
  static constexpr unsigned bits = std::numeric_limits<Word>::digits;
};

/// Window width PhiOpenSSL picks for a given exponent size (in bits).
/// Table memory is 2^w residues; the optimum grows slowly with the
/// exponent length (see bench_window_sweep / experiment E6).
inline int choose_window(std::size_t exp_bits) {
  if (exp_bits <= 96) return 3;
  if (exp_bits <= 512) return 4;
  if (exp_bits <= 1536) return 5;
  return 6;
}

/// Reusable scratch for the windowed schedules: the 2^w window table, the
/// accumulator/temporary/factor residues, and the kernel's own workspace.
/// The table never shrinks, so one ExpWorkspace can serve alternating
/// window sizes (e.g. the two CRT halves) without churn. Not thread-safe.
template <typename Ctx>
struct ExpWorkspace {
  typename Ctx::Workspace kernel;
  std::vector<typename Ctx::Rep> table;
  typename Ctx::Rep tmp;
  typename Ctx::Rep factor;
  typename Ctx::Rep base_m;  // full-domain wrappers: converted base
  typename Ctx::Rep res;     // full-domain wrappers: Montgomery result
};

/// All-ones iff idx == e, else 0, without branching on idx.
template <typename Word, typename Idx>
Word ct_eq_mask(Idx idx, std::uint32_t e) {
  const Word diff = static_cast<Word>(idx ^ e);
  const Word nonzero = static_cast<Word>((diff | (Word{0} - diff)) >>
                                         (WordTraits<Word>::bits - 1));
  return static_cast<Word>(nonzero - Word{1});
}

/// Constant-time table gather, two halves from one scan: words
/// [0, split) of out come from table[idx_lo], the rest from
/// table[idx_hi] (the dual-modulus schedule's gather; split = 0 is the
/// plain gather of table[idx_hi]). Every word of every entry is read and
/// masked arithmetically, so the memory access pattern is independent of
/// both indices.
template <typename Rep, typename Idx = std::uint32_t>
void ct_table_select_split(const Rep* table, std::size_t count, Idx idx_lo,
                           Idx idx_hi, std::size_t split, Rep& out) {
  using Word = typename Rep::value_type;
  out.assign(table[0].size(), Word{0});
  for (std::uint32_t e = 0; e < count; ++e) {
    const Word mask_lo = ct_eq_mask<Word>(idx_lo, e);  // ~0 iff e == idx_lo
    const Word mask_hi = ct_eq_mask<Word>(idx_hi, e);
    const Rep& entry = table[e];
    for (std::size_t w = 0; w < out.size(); ++w) {
      const Word mask = w < split ? mask_lo : mask_hi;  // split is public
      out[w] = static_cast<Word>(out[w] | (entry[w] & mask));
    }
  }
}

/// Constant-time table gather: out = table[idx].
template <typename Rep, typename Idx = std::uint32_t>
void ct_table_select(const Rep* table, std::size_t count, Idx idx, Rep& out) {
  ct_table_select_split<Rep, Idx>(table, count, idx, idx, 0, out);
}

/// The same gathers for residues of 64-bit words, held in AVX-512
/// registers over one scan of the table when the CPU has IFMA (the
/// ifma52 contexts' hosts), else the generic scans above. Every entry's
/// every word is loaded and the indices only enter vector compares.
void ct_table_select(const std::vector<std::uint64_t>* table,
                     std::size_t count, std::uint32_t idx,
                     std::vector<std::uint64_t>& out);
void ct_table_select_split(const std::vector<std::uint64_t>* table,
                           std::size_t count, std::uint32_t idx_lo,
                           std::uint32_t idx_hi, std::size_t split,
                           std::vector<std::uint64_t>& out);

template <typename Rep, typename Idx = std::uint32_t>
void ct_table_select(const std::vector<Rep>& table, Idx idx, Rep& out) {
  ct_table_select(table.data(), table.size(), idx, out);
}

/// Publishes the kernel counts a context batches in its workspace
/// (IfmaMontCtx, IfmaPairCtx); a no-op for contexts that count per call.
template <typename Ctx>
void publish_counts(const Ctx& ctx, typename Ctx::Workspace& ws) {
  if constexpr (requires { ctx.publish_counts(ws); }) ctx.publish_counts(ws);
}

/// (base^exp) mod m in Montgomery domain, fixed w-bit windows, writing the
/// result into `out` (which must not alias `base`) and drawing all scratch
/// from `ws`. Allocation-free once ws has warmed up at this size.
template <typename Ctx, typename Exp = bigint::BigInt>
void fixed_window_exp_rep(const Ctx& ctx, const typename Ctx::Rep& base,
                          const Exp& exp, int window,
                          typename Ctx::Rep& out, ExpWorkspace<Ctx>& ws) {
  if (window < 1 || window > 10) {
    throw std::invalid_argument("fixed_window_exp: window must be in [1,10]");
  }
  if (exp.is_negative()) {
    throw std::invalid_argument("fixed_window_exp: negative exponent");
  }
  const std::size_t w = static_cast<std::size_t>(window);
  if (exp.is_zero()) {
    out = ctx.one_mont_rep();
    publish_counts(ctx, ws.kernel);
    return;
  }

  // Table of g^0 .. g^(2^w - 1) in Montgomery form. The vector only ever
  // grows; entries keep their capacity across calls.
  const std::size_t tsize = std::size_t{1} << w;
  if (ws.table.size() < tsize) ws.table.resize(tsize);
  {
    PHISSL_OBS_SPAN("mont.window_table", "entries",
                    static_cast<std::uint64_t>(tsize));
    ws.table[0] = ctx.one_mont_rep();
    ws.table[1] = base;
    for (std::size_t e = 2; e < tsize; ++e) {
      ctx.mul(ws.table[e - 1], base, ws.table[e], ws.kernel);
    }
  }

  const std::size_t bits = exp.bit_length();
  const std::size_t nwin = (bits + w - 1) / w;

  // Ping-pong between out and ws.tmp (vector swap — free).
  ct_table_select(ws.table.data(), tsize, exp.bits_window((nwin - 1) * w, w),
                  out);
  for (std::size_t win = nwin - 1; win-- > 0;) {
    for (std::size_t s = 0; s < w; ++s) {
      ctx.sqr(out, ws.tmp, ws.kernel);
      out.swap(ws.tmp);
    }
    ct_table_select(ws.table.data(), tsize, exp.bits_window(win * w, w),
                    ws.factor);
    ctx.mul(out, ws.factor, ws.tmp, ws.kernel);  // every window, even zeros
    out.swap(ws.tmp);
  }
  publish_counts(ctx, ws.kernel);
}

/// Value-returning form; allocates its own scratch per call.
template <typename Ctx>
typename Ctx::Rep fixed_window_exp_rep(const Ctx& ctx,
                                       const typename Ctx::Rep& base,
                                       const bigint::BigInt& exp, int window) {
  ExpWorkspace<Ctx> ws;
  typename Ctx::Rep out;
  fixed_window_exp_rep(ctx, base, exp, window, out, ws);
  return out;
}

/// Full-domain workspace form: converts in/out of Montgomery form, writes
/// the plain result into `out`. base must be in [0, m). window <= 0
/// selects choose_window().
template <typename Ctx>
void fixed_window_exp(const Ctx& ctx, const bigint::BigInt& base,
                      const bigint::BigInt& exp, bigint::BigInt& out,
                      ExpWorkspace<Ctx>& ws, int window = 0) {
  if (window <= 0) window = choose_window(exp.bit_length());
  ctx.to_mont(base, ws.base_m, ws.kernel);
  fixed_window_exp_rep(ctx, ws.base_m, exp, window, ws.res, ws);
  ctx.from_mont(ws.res, out, ws.kernel);
}

/// Full-domain convenience: converts in/out of Montgomery form.
/// base must be in [0, m). window <= 0 selects choose_window().
template <typename Ctx>
bigint::BigInt fixed_window_exp(const Ctx& ctx, const bigint::BigInt& base,
                                const bigint::BigInt& exp, int window = 0) {
  ExpWorkspace<Ctx> ws;
  bigint::BigInt out;
  fixed_window_exp(ctx, base, exp, out, ws, window);
  return out;
}

/// The fixed-window schedule over a dual-modulus context (IfmaPairCtx,
/// ct::TaintPairCtx52): (base_p^exp_p, base_q^exp_q) in lockstep, each
/// product a pair product. One table of 2^w pair entries serves both
/// halves, and one scan of it per window gathers both halves' entries
/// (ct_table_select_split at ctx.half_words()). The window count comes
/// from the longer exponent; the shorter one's top windows read zero and
/// select entry 0, the Montgomery one. As in fixed_window_exp_rep, the
/// exponents' bit lengths are public and their bits secret. out must not
/// alias base.
template <typename Ctx, typename Exp = bigint::BigInt>
void fixed_window_exp_pair_rep(const Ctx& ctx, const typename Ctx::Rep& base,
                               const Exp& exp_p, const Exp& exp_q, int window,
                               typename Ctx::Rep& out,
                               ExpWorkspace<Ctx>& ws) {
  if (window < 1 || window > 10) {
    throw std::invalid_argument(
        "fixed_window_exp_pair: window must be in [1,10]");
  }
  if (exp_p.is_negative() || exp_q.is_negative()) {
    throw std::invalid_argument("fixed_window_exp_pair: negative exponent");
  }
  const std::size_t w = static_cast<std::size_t>(window);
  const std::size_t bits = std::max(exp_p.bit_length(), exp_q.bit_length());
  if (bits == 0) {
    out = ctx.one_mont_rep();
    publish_counts(ctx, ws.kernel);
    return;
  }

  const std::size_t tsize = std::size_t{1} << w;
  if (ws.table.size() < tsize) ws.table.resize(tsize);
  {
    PHISSL_OBS_SPAN("mont.window_table", "entries",
                    static_cast<std::uint64_t>(tsize));
    ws.table[0] = ctx.one_mont_rep();
    ws.table[1] = base;
    for (std::size_t e = 2; e < tsize; ++e) {
      ctx.mul(ws.table[e - 1], base, ws.table[e], ws.kernel);
    }
  }

  const std::size_t nwin = (bits + w - 1) / w;
  const std::size_t split = ctx.half_words();
  const auto select = [&](std::size_t win, typename Ctx::Rep& dst) {
    ct_table_select_split(ws.table.data(), tsize, exp_p.bits_window(win * w, w),
                          exp_q.bits_window(win * w, w), split, dst);
  };
  select(nwin - 1, out);
  for (std::size_t win = nwin - 1; win-- > 0;) {
    for (std::size_t s = 0; s < w; ++s) {
      ctx.sqr(out, ws.tmp, ws.kernel);
      out.swap(ws.tmp);
    }
    select(win, ws.factor);
    ctx.mul(out, ws.factor, ws.tmp, ws.kernel);  // every window, even zeros
    out.swap(ws.tmp);
  }
  publish_counts(ctx, ws.kernel);
}

/// Full-domain pair form: (base_p^exp_p mod p, base_q^exp_q mod q) into
/// out_p, out_q. Bases must be below their moduli. window <= 0 selects
/// choose_window() for the longer exponent.
template <typename Ctx>
void fixed_window_exp_pair(const Ctx& ctx, const bigint::BigInt& base_p,
                           const bigint::BigInt& base_q,
                           const bigint::BigInt& exp_p,
                           const bigint::BigInt& exp_q, bigint::BigInt& out_p,
                           bigint::BigInt& out_q, ExpWorkspace<Ctx>& ws,
                           int window = 0) {
  if (window <= 0) {
    window = choose_window(std::max(exp_p.bit_length(), exp_q.bit_length()));
  }
  ctx.to_mont(base_p, base_q, ws.base_m, ws.kernel);
  fixed_window_exp_pair_rep(ctx, ws.base_m, exp_p, exp_q, window, ws.res, ws);
  ctx.from_mont(ws.res, out_p, out_q, ws.kernel);
}

/// Sliding-window exponentiation (odd-powers table), Montgomery domain,
/// workspace form. out must not alias base.
template <typename Ctx, typename Exp = bigint::BigInt>
void sliding_window_exp_rep(const Ctx& ctx, const typename Ctx::Rep& base,
                            const Exp& exp, int window,
                            typename Ctx::Rep& out, ExpWorkspace<Ctx>& ws) {
  if (window < 1 || window > 10) {
    throw std::invalid_argument("sliding_window_exp: window must be in [1,10]");
  }
  if (exp.is_negative()) {
    throw std::invalid_argument("sliding_window_exp: negative exponent");
  }
  if (exp.is_zero()) {
    out = ctx.one_mont_rep();
    return;
  }
  const std::size_t w = static_cast<std::size_t>(window);

  // Odd powers g^1, g^3, ..., g^(2^w - 1). ws.factor doubles as g^2.
  const std::size_t tsize = std::size_t{1} << (w - 1);
  if (ws.table.size() < tsize) ws.table.resize(tsize);
  {
    PHISSL_OBS_SPAN("mont.window_table", "entries",
                    static_cast<std::uint64_t>(tsize));
    ws.table[0] = base;
    ctx.sqr(base, ws.factor, ws.kernel);
    for (std::size_t e = 1; e < tsize; ++e) {
      ctx.mul(ws.table[e - 1], ws.factor, ws.table[e], ws.kernel);
    }
  }

  out = ctx.one_mont_rep();
  bool started = false;
  std::size_t i = exp.bit_length();
  while (i > 0) {
    if (!exp.bit(i - 1)) {
      if (started) {
        ctx.sqr(out, ws.tmp, ws.kernel);
        out.swap(ws.tmp);
      }
      --i;
      continue;
    }
    // Greedy window [i-1 .. i-len], len <= w, ending in a set bit.
    std::size_t len = std::min(w, i);
    while (!exp.bit(i - len)) --len;  // terminates: bit(i-1) is set
    std::uint32_t val = 0;
    for (std::size_t k = 0; k < len; ++k) {
      val = (val << 1) | (exp.bit(i - 1 - k) ? 1u : 0u);
    }
    for (std::size_t k = 0; k < len; ++k) {
      if (started) {
        ctx.sqr(out, ws.tmp, ws.kernel);
        out.swap(ws.tmp);
      }
    }
    if (started) {
      ctx.mul(out, ws.table[(val - 1) / 2], ws.tmp, ws.kernel);
      out.swap(ws.tmp);
    } else {
      out = ws.table[(val - 1) / 2];
      started = true;
    }
    i -= len;
  }
  publish_counts(ctx, ws.kernel);
}

/// Value-returning sliding-window form; allocates its own scratch.
template <typename Ctx>
typename Ctx::Rep sliding_window_exp_rep(const Ctx& ctx,
                                         const typename Ctx::Rep& base,
                                         const bigint::BigInt& exp,
                                         int window) {
  ExpWorkspace<Ctx> ws;
  typename Ctx::Rep out;
  sliding_window_exp_rep(ctx, base, exp, window, out, ws);
  return out;
}

/// Full-domain sliding-window workspace form.
template <typename Ctx>
void sliding_window_exp(const Ctx& ctx, const bigint::BigInt& base,
                        const bigint::BigInt& exp, bigint::BigInt& out,
                        ExpWorkspace<Ctx>& ws, int window = 0) {
  if (window <= 0) window = choose_window(exp.bit_length());
  ctx.to_mont(base, ws.base_m, ws.kernel);
  sliding_window_exp_rep(ctx, ws.base_m, exp, window, ws.res, ws);
  ctx.from_mont(ws.res, out, ws.kernel);
}

/// Full-domain sliding-window convenience.
template <typename Ctx>
bigint::BigInt sliding_window_exp(const Ctx& ctx, const bigint::BigInt& base,
                                  const bigint::BigInt& exp, int window = 0) {
  ExpWorkspace<Ctx> ws;
  bigint::BigInt out;
  sliding_window_exp(ctx, base, exp, out, ws, window);
  return out;
}

}  // namespace phissl::mont
