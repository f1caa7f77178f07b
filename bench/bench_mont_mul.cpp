// E2: single Montgomery multiplication and squaring latency, all kernels,
// across modulus sizes — the innermost primitives the paper vectorizes.
// Every timed call is chained: its output is the next call's input, as in
// an exponentiation, so a serial chain inside the kernel (the AMM's
// per-digit quotient) is not hidden by overlapping independent calls.
// The ifma52 rows run the radix-2^52 almost-Montgomery kernel (vpmadd52
// on a CPU with AVX-512 IFMA; 8192 bits is its largest register count,
// N = 20); ifma52-portable pins the same context to its portable u128
// instantiation. On the vpmadd52 path each ifma52 row carries a
// "vpmadd52" counter: the instructions one timed call issues, 4*N*d per
// product of d digits in N = ceil(d / 8) registers.
// The sqr benchmarks carry a "sqr/mul" counter: the measured cost ratio of
// the squaring against a general multiply of the same operand (the
// dedicated squaring kernels' ideal symmetry win is ~0.75; the ifma52
// kernel squares with its multiply, so its ratio is ~1).
// BM_MontMul_ifma52-pair is one product of the dual-modulus CRT kernel —
// two independent products, one per half (label: "2 x <bits>-bit").
// BM_CtGather_* time the fixed-window schedule's constant-time table
// gather over a 2^5-entry table: the generic word-at-a-time scan against
// the register gather residues of 64-bit words take.
#include <benchmark/benchmark.h>

#include <type_traits>

#include "harness.hpp"
#include "bigint/bigint.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/ifma_pair.hpp"
#include "mont/modexp.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"
#include "util/random.hpp"

namespace {

using phissl::bigint::BigInt;
namespace mont = phissl::mont;

// The ifma52 context pinned to its portable kernels (rsa::Backend's
// kIfma52Portable), constructible from the modulus alone like the rest.
struct IfmaPortableCtx : mont::IfmaMontCtx {
  explicit IfmaPortableCtx(const BigInt& m)
      : mont::IfmaMontCtx(m, /*force_portable=*/true) {}
};

// The vpmadd52 counter of an ifma52 row (none off the vpmadd52 path): per
// digit of b and per half, a low and a high madd of a*b_i and of n*y_i
// into each of the half's N registers.
template <typename Ctx>
void count_vpmadd52(benchmark::State& state, const Ctx& ctx) {
  if constexpr (std::is_base_of_v<mont::IfmaAmmCtx, Ctx>) {
    if (!ctx.uses_ifma()) return;
    const double regs = static_cast<double>(ctx.half_words() / 8);
    state.counters["vpmadd52"] = 4.0 * regs *
                                 static_cast<double>(ctx.digits()) *
                                 static_cast<double>(ctx.halves());
  }
}

template <typename Ctx>
void BM_MontMul(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  phissl::util::Rng rng(bits);
  const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
  const Ctx ctx(m);
  auto x = ctx.to_mont(BigInt::random_below(m, rng));
  const auto b = ctx.to_mont(BigInt::random_below(m, rng));
  typename Ctx::Rep y;
  for (auto _ : state) {
    ctx.mul(x, b, y);
    x.swap(y);
    benchmark::DoNotOptimize(x.data());
  }
  count_vpmadd52(state, ctx);
  state.SetLabel(std::to_string(bits) + "-bit");
}

BENCHMARK_TEMPLATE(BM_MontMul, mont::MontCtx32)
    ->Name("BM_MontMul_scalar32")->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MontMul, mont::MontCtx64)
    ->Name("BM_MontMul_scalar64")->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MontMul, mont::VectorMontCtx)
    ->Name("BM_MontMul_vector")->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MontMul, mont::IfmaMontCtx)
    ->Name("BM_MontMul_ifma52")
    ->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192);
BENCHMARK_TEMPLATE(BM_MontMul, IfmaPortableCtx)
    ->Name("BM_MontMul_ifma52-portable")
    ->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

template <typename Ctx>
void BM_MontSqr(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  phissl::util::Rng rng(bits);
  const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
  const Ctx ctx(m);
  auto x = ctx.to_mont(BigInt::random_below(m, rng));
  typename Ctx::Rep y;
  for (auto _ : state) {
    ctx.sqr(x, y);
    x.swap(y);
    benchmark::DoNotOptimize(x.data());
  }
  // Measured sqr/mul cost ratio, both chained (E2's squaring win).
  const double sqr_ms = phissl::bench::time_op_ms(
                            [&] {
                              ctx.sqr(x, y);
                              x.swap(y);
                            },
                            20, 0.05)
                            .median;
  const double mul_ms = phissl::bench::time_op_ms(
                            [&] {
                              ctx.mul(x, x, y);
                              x.swap(y);
                            },
                            20, 0.05)
                            .median;
  state.counters["sqr/mul"] = mul_ms > 0 ? sqr_ms / mul_ms : 0.0;
  count_vpmadd52(state, ctx);
  state.SetLabel(std::to_string(bits) + "-bit");
}

BENCHMARK_TEMPLATE(BM_MontSqr, mont::MontCtx32)
    ->Name("BM_MontSqr_scalar32")->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MontSqr, mont::MontCtx64)
    ->Name("BM_MontSqr_scalar64")->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MontSqr, mont::VectorMontCtx)
    ->Name("BM_MontSqr_vector")->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MontSqr, mont::IfmaMontCtx)
    ->Name("BM_MontSqr_ifma52")
    ->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192);
BENCHMARK_TEMPLATE(BM_MontSqr, IfmaPortableCtx)
    ->Name("BM_MontSqr_ifma52-portable")
    ->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

// One dual-modulus product: both halves (random odd moduli of `bits`
// bits each) in one kernel call.
void BM_PairMul(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  phissl::util::Rng rng(bits);
  const BigInt p = BigInt::random_odd_exact_bits(bits, rng);
  const BigInt q = BigInt::random_odd_exact_bits(bits, rng);
  const mont::IfmaPairCtx ctx(p, q);
  mont::IfmaPairCtx::Workspace ws;
  mont::IfmaPairCtx::Rep x, b, y;
  ctx.to_mont(BigInt::random_below(p, rng), BigInt::random_below(q, rng), x,
              ws);
  ctx.to_mont(BigInt::random_below(p, rng), BigInt::random_below(q, rng), b,
              ws);
  for (auto _ : state) {
    ctx.mul(x, b, y, ws);
    x.swap(y);
    benchmark::DoNotOptimize(x.data());
  }
  ctx.publish_counts(ws);
  count_vpmadd52(state, ctx);
  state.SetLabel("2 x " + std::to_string(bits) + "-bit");
}
BENCHMARK(BM_PairMul)->Name("BM_MontMul_ifma52-pair")
    ->Arg(512)->Arg(1024)->Arg(2048);

// Gathers from a 32-entry table of residues of `words` 64-bit words: 24 is
// one 1024-bit ifma52 residue, 48 one RSA-2048 pair residue.
template <bool kGeneric>
void BM_CtGather(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  phissl::util::Rng rng(words);
  std::vector<std::vector<std::uint64_t>> table(
      32, std::vector<std::uint64_t>(words));
  for (auto& entry : table) {
    for (auto& w : entry) w = rng.next_u64();
  }
  std::vector<std::uint64_t> out;
  std::uint32_t idx = 0;
  for (auto _ : state) {
    if constexpr (kGeneric) {
      mont::ct_table_select<std::vector<std::uint64_t>, std::uint32_t>(
          table.data(), table.size(), idx, out);
    } else {
      mont::ct_table_select(table.data(), table.size(), idx, out);
    }
    idx = (idx + 7) & 31;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::to_string(words) + " words");
}
BENCHMARK_TEMPLATE(BM_CtGather, true)->Name("BM_CtGather_generic")
    ->Arg(24)->Arg(40)->Arg(48);
BENCHMARK_TEMPLATE(BM_CtGather, false)->Name("BM_CtGather_register")
    ->Arg(24)->Arg(40)->Arg(48);

// Same column algorithm without SIMD: isolates the pure vectorization win
// on the host (the apples-to-apples ablation for the vector kernel).
void BM_MontMulVectorScalarRef(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  phissl::util::Rng rng(bits);
  const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
  const mont::VectorMontCtx ctx(m);
  const auto a = ctx.to_mont(BigInt::random_below(m, rng));
  const auto b = ctx.to_mont(BigInt::random_below(m, rng));
  mont::VectorMontCtx::Rep out;
  for (auto _ : state) {
    ctx.mul_scalar_ref(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::to_string(bits) + "-bit");
}
BENCHMARK(BM_MontMulVectorScalarRef)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
