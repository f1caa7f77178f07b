// E9: batched lane-parallel throughput mode. For each backend with a
// 16-lane batched context (knc_vec, ifma52) it compares 16 operations run
// one at a time on the single-stream context (latency mode) against one
// 16-lane batched run (throughput mode): raw Montgomery exponentiation,
// then the CRT RSA private op through rsa::Engine vs rsa::BatchEngine.
// Every batched lane is checked against its one-at-a-time result before
// anything is timed.
//
//   bench_batch_lanes [--json [path]]
#include <array>
#include <cstdio>
#include <string>

#include "bench/harness.hpp"
#include "bigint/bigint.hpp"
#include "mont/batch.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/modexp.hpp"
#include "mont/vector_mont.hpp"
#include "rsa/backend.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

namespace {

using namespace phissl;
using bigint::BigInt;
constexpr std::size_t kB = mont::BatchIfmaMontCtx::kBatch;
static_assert(kB == mont::BatchVectorMontCtx::kBatch);

// Median ms of 16 one-at-a-time ops vs one 16-lane batch, with each side's
// min/max so a row carries its own spread.
void report(bench::JsonReporter& json, const std::string& group,
            std::size_t bits, const util::Summary& single,
            const util::Summary& batch) {
  std::printf("%-14s %6zu %10.2f [%6.2f, %6.2f] %10.2f [%6.2f, %6.2f] %9.2fx\n",
              group.c_str(), bits, single.median, single.min, single.max,
              batch.median, batch.min, batch.max, single.median / batch.median);
  json.add_row(group, std::to_string(bits),
               {{"single16_ms", single.median},
                {"single16_min_ms", single.min},
                {"single16_max_ms", single.max},
                {"batch_ms", batch.median},
                {"batch_min_ms", batch.min},
                {"batch_max_ms", batch.max},
                {"batch_win", single.median / batch.median}});
}

template <class Single, class Batch>
bool modexp_row(bench::JsonReporter& json, const char* backend,
                std::size_t bits) {
  util::Rng rng(bits);
  const BigInt m = BigInt::random_odd_exact_bits(bits, rng);
  const Single single(m);
  const Batch batch(m);
  std::array<BigInt, kB> xs;
  for (auto& x : xs) x = BigInt::random_below(m, rng);
  const BigInt exp = BigInt::random_bits(bits, rng);

  const auto lanes = batch.mod_exp(xs, exp);
  for (std::size_t l = 0; l < kB; ++l) {
    if (lanes[l] != mont::fixed_window_exp(single, xs[l], exp)) {
      std::fprintf(stderr, "FAIL: %s modexp lane %zu at %zu bits\n", backend,
                   l, bits);
      return false;
    }
  }
  const auto s = bench::time_op_ms(
      [&] {
        for (const auto& x : xs) (void)mont::fixed_window_exp(single, x, exp);
      },
      3, 0.3, 50);
  const auto b =
      bench::time_op_ms([&] { (void)batch.mod_exp(xs, exp); }, 3, 0.3, 50);
  report(json, std::string("modexp_") + backend, bits, s, b);
  return true;
}

bool rsa_row(bench::JsonReporter& json, rsa::Backend backend,
             std::size_t bits) {
  const rsa::PrivateKey& key = rsa::test_key(bits);
  const rsa::Engine engine(key, rsa::EngineOptions{.kernel = backend});
  const rsa::BatchEngine batch(key, backend);
  util::Rng rng(bits);
  std::array<BigInt, kB> msgs;
  for (auto& x : msgs) x = BigInt::random_below(key.pub.n, rng);

  const auto lanes = batch.private_op(msgs);
  for (std::size_t l = 0; l < kB; ++l) {
    if (lanes[l] != engine.private_op(msgs[l])) {
      std::fprintf(stderr, "FAIL: %s private op lane %zu at %zu bits\n",
                   rsa::to_string(backend), l, bits);
      return false;
    }
  }
  const auto s = bench::time_op_ms(
      [&] {
        for (const auto& x : msgs) (void)engine.private_op(x);
      },
      3, 0.3, 50);
  const auto b =
      bench::time_op_ms([&] { (void)batch.private_op(msgs); }, 3, 0.3, 50);
  report(json, std::string("rsa_") + rsa::to_string(backend), bits, s, b);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto json = bench::JsonReporter::from_args("bench_batch_lanes", argc, argv);
  bench::print_header("E9 bench_batch_lanes",
                      "16-lane batched vs 16 one-at-a-time, per backend");

  bool ok = true;
  std::printf("\n[total ms for 16 ops: median [min, max]]\n");
  std::printf("%-14s %6s %29s %29s %10s\n", "group", "bits", "16x single",
              "1x batched", "batch win");
  for (const std::size_t bits : {512u, 1024u, 2048u}) {
    ok = ok && modexp_row<mont::VectorMontCtx, mont::BatchVectorMontCtx>(
                   json, "knc_vec", bits);
    ok = ok && modexp_row<mont::IfmaMontCtx, mont::BatchIfmaMontCtx>(
                   json, "ifma52", bits);
  }
  for (const std::size_t bits : {1024u, 2048u}) {
    for (const rsa::Backend b : {rsa::Backend::kKncVec, rsa::Backend::kIfma52}) {
      ok = ok && rsa_row(json, b, bits);
    }
  }
  if (!ok) return 1;
  return json.write() ? 0 : 1;
}
