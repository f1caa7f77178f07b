// E7: CRT ablation. RSA private op with and without the Chinese Remainder
// Theorem, for every kernel, at 2048 bits. CRT is one of the paper's two
// named algorithmic choices; the expected win is ~3-4x (two half-size
// exponentiations replace one full-size one).
#include <cstdio>

#include "bench/harness.hpp"
#include "bigint/bigint.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

int main() {
  using namespace phissl;
  using bigint::BigInt;

  bench::print_header("E7 bench_crt_ablation",
                      "RSA-2048 private op: CRT vs no-CRT, per kernel");

  const rsa::PrivateKey& key = rsa::test_key(2048);
  util::Rng rng(1);
  const BigInt msg = BigInt::random_below(key.pub.n, rng);

  std::printf("%12s %14s %14s %12s\n", "kernel", "no-CRT (ms)", "CRT (ms)",
              "CRT speedup");
  for (const auto kernel : {rsa::Backend::kKncVec, rsa::Backend::kScalar32,
                            rsa::Backend::kScalar64}) {
    rsa::EngineOptions opts;
    opts.kernel = kernel;
    opts.schedule = kernel == rsa::Backend::kKncVec
                        ? rsa::Schedule::kFixedWindow
                        : rsa::Schedule::kSlidingWindow;
    opts.use_crt = false;
    const rsa::Engine plain(key, opts);
    opts.use_crt = true;
    const rsa::Engine crt(key, opts);

    const double no_crt =
        phissl::bench::time_op_ms([&] { (void)plain.private_op(msg); }, 3, 0.3,
                                  100)
            .median;
    const double with_crt =
        phissl::bench::time_op_ms([&] { (void)crt.private_op(msg); }, 3, 0.3,
                                  100)
            .median;
    std::printf("%12s %14.3f %14.3f %11.2fx\n", rsa::to_string(kernel), no_crt,
                with_crt, no_crt / with_crt);
  }
  return 0;
}
