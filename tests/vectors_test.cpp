// Mass differential replay of tests/vectors/bigint_vectors.txt (generated
// by tools/generate_bigint_vectors.py) through every Montgomery backend.
//
// Each line carries a Python-bigint reference result for inputs shaped to
// break limbed arithmetic: operands straddling the 32/52/64-bit limb
// boundaries, all-ones carry-chain maximizers, power-of-two neighbors
// sitting next to the REDC R boundary, prime and CRT-shaped (p*q,
// prime-adjacent) moduli. Every backend must agree with the reference
// bit-exactly on every vector — scalar32, scalar64, the KNC-style
// redundant-radix vector context, both instantiations (native, portable)
// of the radix-52 IFMA context, and the 16-lane batch contexts: knc_vec
// and radix-52, the latter native and portable. The radix-52 rows also
// replay digit-built carry-ripple operands (ifma_ripple_cases.hpp), which
// the file's integer-domain vectors cannot aim at the kernels' carries.
// The dual-modulus CRT context (IfmaPairCtx, native and portable) replays
// the exp vectors two at a time against the references and two scalar64
// exponentiations, and the ripple cases against the exact
// almost-Montgomery product.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"
#include "ifma_ripple_cases.hpp"
#include "mont/batch.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"

#ifndef PHISSL_VECTORS_FILE
#error "build must define PHISSL_VECTORS_FILE (tests/CMakeLists.txt does)"
#endif

namespace phissl::mont {
namespace {

using bigint::BigInt;

struct Vec {
  std::string op;  // "mul" | "sqr" | "exp"
  BigInt a, b, r;  // sqr leaves b empty; exp's b is the exponent
};

/// All vectors for one modulus, in file order.
struct Group {
  BigInt m;
  std::vector<Vec> vecs;
};

const std::vector<Group>& groups() {
  static const std::vector<Group> gs = [] {
    std::ifstream in(PHISSL_VECTORS_FILE);
    EXPECT_TRUE(in.is_open()) << "missing " << PHISSL_VECTORS_FILE;
    std::vector<Group> out;
    std::map<std::string, std::size_t> index;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ss(line);
      std::string op, mh, ah, xh, rh;
      ss >> op >> mh >> ah >> xh;
      if (op == "sqr") {
        rh = xh;
        xh.clear();
      } else {
        ss >> rh;
      }
      EXPECT_FALSE(ss.fail()) << "bad vector line: " << line;
      auto [it, fresh] = index.try_emplace(mh, out.size());
      if (fresh) out.push_back(Group{BigInt::from_hex(mh), {}});
      out[it->second].vecs.push_back(
          Vec{op, BigInt::from_hex(ah),
              xh.empty() ? BigInt{} : BigInt::from_hex(xh),
              BigInt::from_hex(rh)});
    }
    EXPECT_GT(out.size(), 100u) << "vector file implausibly small";
    return out;
  }();
  return gs;
}

/// Replays every vector through one scalar-API context. Returns the
/// number of vectors checked so tests can assert the replay really ran.
template <typename Ctx, typename... CtxArgs>
std::size_t replay_scalar(const char* backend, CtxArgs&&... args) {
  std::size_t n = 0;
  for (const auto& g : groups()) {
    const Ctx ctx(g.m, std::forward<CtxArgs>(args)...);
    for (const auto& v : g.vecs) {
      BigInt got;
      if (v.op == "mul") {
        typename Ctx::Rep out(ctx.rep_size());
        ctx.mul(ctx.to_mont(v.a), ctx.to_mont(v.b), out);
        got = ctx.from_mont(out);
      } else if (v.op == "sqr") {
        typename Ctx::Rep out(ctx.rep_size());
        ctx.sqr(ctx.to_mont(v.a), out);
        got = ctx.from_mont(out);
      } else {
        got = fixed_window_exp(ctx, v.a, v.b);
      }
      if (got != v.r) {
        // Abort the replay on the first divergence: one bad vector means
        // the backend is wrong, and the remaining thousands of failures
        // would only bury the interesting one.
        ADD_FAILURE() << backend << " " << v.op << " m=" << g.m.to_hex()
                      << " a=" << v.a.to_hex() << " b=" << v.b.to_hex()
                      << " got=" << got.to_hex() << " want=" << v.r.to_hex();
        return n;
      }
      ++n;
    }
  }
  return n;
}

/// Replays the digit-built carry-ripple cases (ifma_ripple_cases.hpp),
/// operands in [m, 2m) and tight moduli included, through the ifma52
/// context against the exact almost-Montgomery product. Returns the number
/// of products checked.
std::size_t replay_ripple(const char* backend, bool force_portable) {
  std::size_t n = 0;
  for (const ripple::Case& c : ripple::pair_cases()) {
    const IfmaMontCtx ctx(c.m, force_portable);
    const std::size_t d = ctx.digits();
    for (const auto& [a, b] : c.pairs) {
      IfmaMontCtx::Rep ar, br, out(ctx.rep_size());
      ctx.pack(a, ar);
      ctx.pack(b, br);
      ctx.mul(ar, br, out);
      const BigInt want_mul = ripple::amm(a, b, c.m, d);
      ctx.sqr(ar, ar);
      const BigInt want_sqr = ripple::amm(a, a, c.m, d);
      if (ripple::value(out) != want_mul || ripple::value(ar) != want_sqr) {
        ADD_FAILURE() << backend << " carry-ripple " << c.what
                      << " a=" << a.to_hex() << " b=" << b.to_hex();
        return n;
      }
      n += 2;
    }
  }
  return n;
}

/// Replays the file's exp vectors through the pair context two at a time —
/// vector k's modulus as p, vector k+1's as q, so most pairs have halves
/// of unequal size — and checks each half against its reference and a
/// scalar64 exponentiation. Returns the number of halves checked.
std::size_t replay_pair(const char* backend, bool force_portable) {
  std::vector<std::pair<const BigInt*, const Vec*>> exps;
  for (const auto& g : groups()) {
    for (const auto& v : g.vecs) {
      if (v.op == "exp") exps.emplace_back(&g.m, &v);
    }
  }
  std::size_t n = 0;
  ExpWorkspace<IfmaPairCtx> ws;
  for (std::size_t k = 0; k < exps.size(); ++k) {
    const auto& [mp, vp] = exps[k];
    const auto& [mq, vq] = exps[(k + 1) % exps.size()];
    const IfmaPairCtx ctx(*mp, *mq, force_portable);
    BigInt rp, rq;
    fixed_window_exp_pair(ctx, vp->a, vq->a, vp->b, vq->b, rp, rq, ws);
    const BigInt sp = fixed_window_exp(MontCtx64(*mp), vp->a, vp->b);
    const BigInt sq = fixed_window_exp(MontCtx64(*mq), vq->a, vq->b);
    if (rp != vp->r || rq != vq->r || sp != vp->r || sq != vq->r) {
      ADD_FAILURE() << backend << " pair exp p=" << mp->to_hex()
                    << " q=" << mq->to_hex() << " got " << rp.to_hex() << ", "
                    << rq.to_hex() << " want " << vp->r.to_hex() << ", "
                    << vq->r.to_hex();
      return n;
    }
    n += 2;
  }
  return n;
}

/// Replays ripple::pair_cases() through the pair kernel, case k as the p
/// half and case k+1 as the q half (operand lists zipped), mul and sqr,
/// against the exact almost-Montgomery product. Returns the number of
/// half-products checked.
std::size_t replay_pair_ripple(const char* backend, bool force_portable) {
  const std::vector<ripple::Case> cs = ripple::pair_cases();
  std::size_t n = 0;
  IfmaPairCtx::Workspace ws;
  for (std::size_t k = 0; k < cs.size(); ++k) {
    const ripple::Case& cp = cs[k];
    const ripple::Case& cq = cs[(k + 1) % cs.size()];
    const IfmaPairCtx ctx(cp.m, cq.m, force_portable);
    const std::size_t d = ctx.digits();
    const std::size_t count = std::max(cp.pairs.size(), cq.pairs.size());
    for (std::size_t i = 0; i < count; ++i) {
      const auto& [ap, bp] = cp.pairs[i % cp.pairs.size()];
      const auto& [aq, bq] = cq.pairs[i % cq.pairs.size()];
      IfmaPairCtx::Rep a, b, prod, sq;
      ctx.pack(ap, aq, a);
      ctx.pack(bp, bq, b);
      ctx.mul(a, b, prod, ws);
      ctx.sqr(a, sq, ws);
      if (ripple::half_value(ctx, prod, 0) != ripple::amm(ap, bp, cp.m, d) ||
          ripple::half_value(ctx, prod, 1) != ripple::amm(aq, bq, cq.m, d) ||
          ripple::half_value(ctx, sq, 0) != ripple::amm(ap, ap, cp.m, d) ||
          ripple::half_value(ctx, sq, 1) != ripple::amm(aq, aq, cq.m, d)) {
        ADD_FAILURE() << backend << " pair carry-ripple " << cp.what << " x "
                      << cq.what << " ap=" << ap.to_hex()
                      << " bp=" << bp.to_hex() << " aq=" << aq.to_hex()
                      << " bq=" << bq.to_hex();
        return n;
      }
      n += 4;
    }
  }
  return n;
}

}  // namespace

TEST(VectorsTest, Scalar32Agrees) {
  EXPECT_GT(replay_scalar<MontCtx32>("scalar32"), 1000u);
}

TEST(VectorsTest, Scalar64Agrees) {
  EXPECT_GT(replay_scalar<MontCtx64>("scalar64"), 1000u);
}

TEST(VectorsTest, KncVectorAgrees) {
  EXPECT_GT(replay_scalar<VectorMontCtx>("knc_vec"), 1000u);
}

TEST(VectorsTest, Ifma52Agrees) {
  // Auto backend: vpmadd52 when CPU + binary support it, else the same
  // portable almost-Montgomery product — either way results must be
  // bit-exact, on the file's vectors and on the carry-ripple cases.
  EXPECT_GT(replay_scalar<IfmaMontCtx>("ifma52", false), 1000u);
  EXPECT_EQ(replay_ripple("ifma52", false), 2 * ripple::kPairCaseProducts);
}

TEST(VectorsTest, Ifma52PortableAgrees) {
  EXPECT_GT(replay_scalar<IfmaMontCtx>("ifma52-portable", true), 1000u);
  EXPECT_EQ(replay_ripple("ifma52-portable", true),
            2 * ripple::kPairCaseProducts);
}

TEST(VectorsTest, Ifma52PairAgrees) {
  // The dual-modulus CRT context on the dispatched kernel (vpmadd52 when
  // the CPU has it): every exp vector's half equals the reference and the
  // scalar64 exponentiation; every ripple product is exact.
  EXPECT_GT(replay_pair("ifma52 pair", false), 800u);
  EXPECT_GT(replay_pair_ripple("ifma52 pair", false), 1000u);
}

TEST(VectorsTest, Ifma52PortablePairAgrees) {
  EXPECT_GT(replay_pair("ifma52-portable pair", true), 800u);
  EXPECT_GT(replay_pair_ripple("ifma52-portable pair", true), 1000u);
}

// Sliding-window vs fixed-window differential on the exp vectors: two
// independent schedules over the same kernel must match the reference.
TEST(VectorsTest, SlidingWindowAgrees) {
  std::size_t n = 0;
  for (const auto& g : groups()) {
    const MontCtx64 ctx(g.m);
    for (const auto& v : g.vecs) {
      if (v.op != "exp") continue;
      EXPECT_EQ(sliding_window_exp(ctx, v.a, v.b), v.r)
          << "m=" << g.m.to_hex() << " a=" << v.a.to_hex()
          << " e=" << v.b.to_hex();
      ++n;
    }
  }
  EXPECT_GT(n, 100u);
}

// The 16-lane batch contexts, one type each for the typed replay below.
struct KncVecBatch {
  using Ctx = BatchVectorMontCtx;
  static Ctx make(const BigInt& m) { return Ctx(m); }
};
struct Ifma52Batch {  // vpmadd52 kernels when the CPU has them
  using Ctx = BatchIfmaMontCtx;
  static Ctx make(const BigInt& m) { return Ctx(m); }
};
struct Ifma52PortableBatch {
  using Ctx = BatchIfmaMontCtx;
  static Ctx make(const BigInt& m) { return Ctx(m, /*force_portable=*/true); }
};

template <typename T>
class VectorsBatchTest : public ::testing::Test {};

using BatchCtxTypes =
    ::testing::Types<KncVecBatch, Ifma52Batch, Ifma52PortableBatch>;
TYPED_TEST_SUITE(VectorsBatchTest, BatchCtxTypes);

// Batch contexts: mul vectors replay 16 at a time through ctx.mul and sqr
// vectors through ctx.sqr (the tail of each modulus group pads by
// repetition). Each lane must match its own reference result.
TYPED_TEST(VectorsBatchTest, Agrees) {
  using Ctx = typename TypeParam::Ctx;
  constexpr std::size_t kB = Ctx::kBatch;
  std::size_t n = 0;
  for (const auto& g : groups()) {
    const Ctx ctx = TypeParam::make(g.m);
    for (const char* op : {"mul", "sqr"}) {
      std::vector<const Vec*> work;
      for (const auto& v : g.vecs) {
        if (v.op == op) work.push_back(&v);
      }
      for (std::size_t base = 0; base < work.size(); base += kB) {
        std::array<BigInt, kB> as, bs;
        for (std::size_t l = 0; l < kB; ++l) {
          const Vec& v = *work[std::min(base + l, work.size() - 1)];
          as[l] = v.a;
          bs[l] = v.b;
        }
        typename Ctx::Rep out(ctx.rep_size());
        if (std::string_view(op) == "sqr") {
          ctx.sqr(ctx.to_mont(as), out);
        } else {
          ctx.mul(ctx.to_mont(as), ctx.to_mont(bs), out);
        }
        const auto got = ctx.from_mont(out);
        for (std::size_t l = 0; l < kB; ++l) {
          const Vec& v = *work[std::min(base + l, work.size() - 1)];
          ASSERT_EQ(got[l], v.r)
              << "batch lane " << l << " " << v.op << " m=" << g.m.to_hex()
              << " a=" << v.a.to_hex();
          if (base + l < work.size()) ++n;
        }
      }
    }
  }
  EXPECT_GT(n, 1000u);
}

}  // namespace phissl::mont
