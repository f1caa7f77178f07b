// E4 (headline table): RSA private-key operation latency and throughput
// for the three systems at the paper's key sizes. The paper reports
// PhiOpenSSL 1.6-5.7x faster than the two reference libcrypto builds.
//
// As in E3: (a) measured on this host; (b) simulated on the KNC model,
// which is the hardware the paper's ratios refer to. (c) adds the
// host-side rows: the single-stream ifma52 CRT op the terminator runs on a
// partial flush, and — when the build found OpenSSL — the host's real
// libcrypto raw private op on the same key, the "default OpenSSL" the
// paper compares against. Every row of (c) is first checked bit-identical
// to the scalar64 reference on random inputs; a mismatch exits 1 before
// anything is timed.
//
//   bench_rsa_private [--json [PATH]] [--smoke]
//
// --json writes every row (bench/results/BENCH_rsa.json is the checked-in
// reference run). --smoke is the CI-sized run: 1024 and 2048 bits, a few
// repetitions per row — the numbers mean little, the bit-identity gate of
// table (c) runs in full.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/systems.hpp"
#include "bench/harness.hpp"
#include "bigint/bigint.hpp"
#include "phisim/core_model.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

#ifdef PHISSL_BENCH_LIBCRYPTO
#include <openssl/core_names.h>
#include <openssl/crypto.h>
#include <openssl/evp.h>
#include <openssl/param_build.h>
#include <openssl/rsa.h>
#endif

namespace {

using namespace phissl;
using bigint::BigInt;

#ifdef PHISSL_BENCH_LIBCRYPTO
/// The host libcrypto's raw RSA private op (RSA_NO_PADDING decrypt: x^d
/// mod n, CRT inside) on one of our keys.
class LibcryptoRsa {
 public:
  explicit LibcryptoRsa(const rsa::PrivateKey& key) : k_(key.pub.byte_size()) {
    const auto bn = [this](const BigInt& x) {
      const std::vector<std::uint8_t> be = x.to_bytes_be();
      bns_.push_back(BN_bin2bn(be.data(), static_cast<int>(be.size()),
                               nullptr));
      return bns_.back();
    };
    OSSL_PARAM_BLD* bld = OSSL_PARAM_BLD_new();
    const bool pushed =
        bld != nullptr &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_N, bn(key.pub.n)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_E, bn(key.pub.e)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_D, bn(key.d)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_FACTOR1, bn(key.p)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_FACTOR2, bn(key.q)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_EXPONENT1,
                               bn(key.dp)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_EXPONENT2,
                               bn(key.dq)) &&
        OSSL_PARAM_BLD_push_BN(bld, OSSL_PKEY_PARAM_RSA_COEFFICIENT1,
                               bn(key.qinv));
    OSSL_PARAM* params = pushed ? OSSL_PARAM_BLD_to_param(bld) : nullptr;
    EVP_PKEY_CTX* kctx = EVP_PKEY_CTX_new_from_name(nullptr, "RSA", nullptr);
    if (params != nullptr && kctx != nullptr &&
        EVP_PKEY_fromdata_init(kctx) == 1) {
      EVP_PKEY_fromdata(kctx, &pkey_, EVP_PKEY_KEYPAIR, params);
    }
    EVP_PKEY_CTX_free(kctx);
    OSSL_PARAM_free(params);
    OSSL_PARAM_BLD_free(bld);
    if (pkey_ != nullptr) ctx_ = EVP_PKEY_CTX_new_from_pkey(nullptr, pkey_, nullptr);
    if (ctx_ == nullptr || EVP_PKEY_decrypt_init(ctx_) != 1 ||
        EVP_PKEY_CTX_set_rsa_padding(ctx_, RSA_NO_PADDING) != 1) {
      std::fprintf(stderr, "libcrypto: cannot load the key\n");
      std::exit(1);
    }
    out_.resize(k_);
  }
  ~LibcryptoRsa() {
    EVP_PKEY_CTX_free(ctx_);
    EVP_PKEY_free(pkey_);
    for (BIGNUM* b : bns_) BN_clear_free(b);
  }
  LibcryptoRsa(const LibcryptoRsa&) = delete;
  LibcryptoRsa& operator=(const LibcryptoRsa&) = delete;

  /// x^d mod n as k big-endian bytes; empty on a libcrypto error.
  const std::vector<std::uint8_t>& private_op(
      const std::vector<std::uint8_t>& in) {
    std::size_t len = out_.size();
    if (EVP_PKEY_decrypt(ctx_, out_.data(), &len, in.data(), in.size()) != 1 ||
        len != k_) {
      out_.clear();
    }
    return out_;
  }

 private:
  std::size_t k_;
  std::vector<BIGNUM*> bns_;
  EVP_PKEY* pkey_ = nullptr;
  EVP_PKEY_CTX* ctx_ = nullptr;
  std::vector<std::uint8_t> out_;
};
#endif

/// Exits 1 unless `got` is the reference private op of `x`.
void check_identical(const char* row, std::size_t bits,
                     const std::vector<std::uint8_t>& got,
                     const std::vector<std::uint8_t>& want) {
  if (got != want) {
    std::fprintf(stderr, "%s RSA-%zu: private op differs from scalar64\n", row,
                 bits);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("E4 bench_rsa_private",
                      "RSA private-key op (CRT sign/decrypt), three systems");
  auto json = bench::JsonReporter::from_args("bench_rsa_private", argc, argv);
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1024, 2048}
            : std::vector<std::size_t>{1024, 2048, 4096};
  // Time budgets per row: (min reps, min seconds, max reps).
  const int min_reps = smoke ? 2 : 5;
  const double min_s = smoke ? 0.01 : 0.3;
  const int max_reps = smoke ? 5 : 2000;

  std::printf("\n(a) measured on this host [median ms per op | ops/s]\n");
  std::printf("%8s", "bits");
  for (const auto s : baseline::all_systems()) {
    std::printf(" %22s", baseline::name(s));
  }
  std::printf(" %14s %14s\n", "PHI/MPSS spd", "PHI/OSSL spd");
  for (const std::size_t bits : sizes) {
    const rsa::PrivateKey& key = rsa::test_key(bits);
    util::Rng rng(bits);
    const BigInt msg = BigInt::random_below(key.pub.n, rng);
    double lat[3] = {};
    int i = 0;
    std::printf("%8zu", bits);
    for (const auto s : baseline::all_systems()) {
      const rsa::Engine engine = baseline::make_engine(s, key);
      const util::Summary t = bench::time_op_ms(
          [&] { (void)engine.private_op(msg); }, smoke ? 2 : 3, min_s,
          smoke ? max_reps : 200);
      lat[i] = t.median;
      std::printf(" %12.3f | %6.1f", lat[i], 1e3 / lat[i]);
      json.add_row("host_ms", std::string(baseline::name(s)) + "/" +
                                  std::to_string(bits),
                   {{"median_ms", t.median}, {"min_ms", t.min},
                    {"max_ms", t.max}});
      ++i;
    }
    std::printf(" %13.2fx %13.2fx\n", lat[1] / lat[0], lat[2] / lat[0]);
  }

  std::printf("\n(b) simulated on the KNC cost model "
              "[ms per op, 4 threads/core | chip ops/s at 240 threads]\n");
  std::printf("%8s", "bits");
  for (const auto s : baseline::all_systems()) {
    std::printf(" %22s", baseline::name(s));
  }
  std::printf(" %14s %14s\n", "PHI/MPSS spd", "PHI/OSSL spd");
  const phisim::ChipModel chip;
  for (const std::size_t bits : sizes) {
    double lat[3] = {};
    int i = 0;
    std::printf("%8zu", bits);
    for (const auto s : baseline::all_systems()) {
      const auto profile =
          phisim::profile_rsa_private(bits, baseline::options_for(s));
      lat[i] = 1e3 * chip.op_latency_s(profile, 4);
      const double chip_ops = chip.throughput_ops_s(profile, 240);
      std::printf(" %12.3f | %6.0f", lat[i], chip_ops);
      json.add_row("knc_sim_ms", std::string(baseline::name(s)) + "/" +
                                     std::to_string(bits),
                   {{"op_ms", lat[i]}, {"chip_ops_s", chip_ops}});
      ++i;
    }
    std::printf(" %13.2fx %13.2fx\n", lat[1] / lat[0], lat[2] / lat[0]);
  }

  std::printf("\n(c) host-side single-stream rows, checked bit-identical "
              "to scalar64 [median us per op (min..max)]\n");
  std::printf("%8s %26s %26s\n", "bits", "ifma52 CRT", "host libcrypto");
  for (const std::size_t bits : sizes) {
    const rsa::PrivateKey& key = rsa::test_key(bits);
    const std::size_t k = key.pub.byte_size();
    const rsa::Engine ref(key, rsa::EngineOptions{.kernel = rsa::Backend::kScalar64});
    const rsa::Engine ifma(key, rsa::EngineOptions{.kernel = rsa::Backend::kIfma52});
#ifdef PHISSL_BENCH_LIBCRYPTO
    LibcryptoRsa lib(key);
#endif
    util::Rng rng(bits + 1);
    BigInt x;
    BigInt out;
    std::vector<std::uint8_t> x_be;
    for (int trial = 0; trial < 8; ++trial) {
      x = BigInt::random_below(key.pub.n, rng);
      x_be = x.to_bytes_be(k);
      const std::vector<std::uint8_t> want = ref.private_op(x).to_bytes_be(k);
      ifma.private_op_into(x, out);
      check_identical("ifma52", bits, out.to_bytes_be(k), want);
#ifdef PHISSL_BENCH_LIBCRYPTO
      check_identical("libcrypto", bits, lib.private_op(x_be), want);
#endif
    }
    const util::Summary t_ifma = bench::time_op_ms(
        [&] { ifma.private_op_into(x, out); }, min_reps, min_s, max_reps);
    std::printf("%8zu %10.1f (%6.1f..%6.1f)", bits, 1e3 * t_ifma.median,
                1e3 * t_ifma.min, 1e3 * t_ifma.max);
    json.add_row("host_us", "ifma52_crt/" + std::to_string(bits),
                 {{"median_us", 1e3 * t_ifma.median},
                  {"min_us", 1e3 * t_ifma.min},
                  {"max_us", 1e3 * t_ifma.max}});
#ifdef PHISSL_BENCH_LIBCRYPTO
    const util::Summary t_lib = bench::time_op_ms(
        [&] { (void)lib.private_op(x_be); }, min_reps, min_s, max_reps);
    std::printf(" %10.1f (%6.1f..%6.1f)\n", 1e3 * t_lib.median,
                1e3 * t_lib.min, 1e3 * t_lib.max);
    json.add_row("host_us", "libcrypto/" + std::to_string(bits),
                 {{"median_us", 1e3 * t_lib.median},
                  {"min_us", 1e3 * t_lib.min},
                  {"max_us", 1e3 * t_lib.max}});
#else
    std::printf(" %26s\n", "(built without OpenSSL)");
#endif
  }
#ifdef PHISSL_BENCH_LIBCRYPTO
  std::printf("libcrypto: %s\n", OpenSSL_version(OPENSSL_VERSION));
#endif

  std::printf("\npaper: RSA private-key routines 1.6-5.7x faster than the "
              "two reference systems\n");
  return json.write() ? 0 : 1;
}
