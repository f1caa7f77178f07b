// phissl_speed: `openssl speed rsa`-style CLI over the phissl engines.
//
//   ./phissl_speed [system] [seconds-per-row]
//     system: phi | mpss | openssl | all   (default all)
//
// Prints sign/s and verify/s per key size for the chosen system(s). The
// 16-lane batch's throughput is bench_batch_lanes' table (E9).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "baseline/systems.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "util/random.hpp"
#include "util/timing.hpp"

namespace {

using namespace phissl;

// Runs op() repeatedly for ~budget seconds; returns ops/s.
double ops_per_second(const std::function<void()>& op, double budget) {
  op();  // warm-up
  util::Stopwatch sw;
  std::size_t n = 0;
  while (sw.elapsed_s() < budget) {
    op();
    ++n;
  }
  return static_cast<double>(n) / sw.elapsed_s();
}

void speed_system(baseline::System system, double budget) {
  std::printf("\n-- %s --\n", baseline::name(system));
  std::printf("%10s %14s %14s\n", "key", "sign/s", "verify/s");
  util::Rng rng(1);
  const std::vector<std::uint8_t> msg = rng.bytes(64);
  for (const std::size_t bits : {1024u, 2048u, 4096u}) {
    const rsa::PrivateKey& key = rsa::test_key(bits);
    const rsa::Engine engine = baseline::make_engine(system, key);
    const auto sig = rsa::sign_sha256(engine, msg);
    const double signs =
        ops_per_second([&] { (void)rsa::sign_sha256(engine, msg); }, budget);
    const double verifies = ops_per_second(
        [&] { (void)rsa::verify_sha256(engine, msg, sig); }, budget);
    std::printf("%7zu-bit %14.1f %14.1f\n", bits, signs, verifies);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "all";
  const double budget = argc > 2 ? std::strtod(argv[2], nullptr) : 0.5;

  std::printf("phissl speed: RSA sign/verify throughput "
              "(single host thread, %.1fs per row)\n",
              budget);
  if (which == "phi" || which == "all") {
    speed_system(baseline::System::kPhiOpenSSL, budget);
  }
  if (which == "mpss" || which == "all") {
    speed_system(baseline::System::kMpssLibcrypto, budget);
  }
  if (which == "openssl" || which == "all") {
    speed_system(baseline::System::kOpensslDefault, budget);
  }
  return 0;
}
