// Quickstart: generate an RSA key, sign and verify a message, encrypt and
// decrypt a secret — all on the PhiOpenSSL (vectorized) engine.
//
//   ./quickstart [key_bits]       (default 1024)
//
// Exits 1 unless the signature verifies, the tampered one does not, and
// the decryption returns the secret.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baseline/systems.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/timing.hpp"

int main(int argc, char** argv) {
  using namespace phissl;

  const std::size_t bits = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1024;
  util::Rng rng(2026);

  std::printf("== PhiOpenSSL quickstart ==\n");
  std::printf("generating RSA-%zu key (deterministic seed)...\n", bits);
  util::Stopwatch sw;
  const rsa::PrivateKey key = rsa::generate_key(bits, rng);
  std::printf("  done in %.1f ms; n = %s...\n", sw.elapsed_s() * 1e3,
              key.pub.n.to_hex().substr(0, 32).c_str());

  // Engine configured like the paper's library: vectorized Montgomery,
  // fixed-window exponentiation, CRT.
  const rsa::Engine engine =
      baseline::make_engine(baseline::System::kPhiOpenSSL, key);

  // --- Sign / verify ---------------------------------------------------
  const std::string msg = "the SSL handshake is bottlenecked by RSA";
  const std::span<const std::uint8_t> msg_bytes{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};

  sw.reset();
  const auto sig = rsa::sign_sha256(engine, msg_bytes);
  std::printf("sign   : %.3f ms, signature = %s...\n", sw.elapsed_s() * 1e3,
              util::hex_encode(sig).substr(0, 32).c_str());

  sw.reset();
  const bool ok = rsa::verify_sha256(engine, msg_bytes, sig);
  std::printf("verify : %.3f ms -> %s\n", sw.elapsed_s() * 1e3,
              ok ? "VALID" : "INVALID");

  auto tampered = sig;
  tampered[0] ^= 1;
  const bool tamper_valid = rsa::verify_sha256(engine, msg_bytes, tampered);
  std::printf("tamper : -> %s (must be INVALID)\n",
              tamper_valid ? "VALID" : "INVALID");

  // --- Encrypt / decrypt -----------------------------------------------
  const std::string secret = "premaster secret";
  const std::span<const std::uint8_t> secret_bytes{
      reinterpret_cast<const std::uint8_t*>(secret.data()), secret.size()};
  const auto ct = rsa::encrypt_pkcs1(engine, secret_bytes, rng);
  const auto pt = rsa::decrypt_pkcs1(engine, ct);
  const bool round_trip =
      pt.has_value() && std::equal(pt->begin(), pt->end(),
                                   secret_bytes.begin(), secret_bytes.end());
  std::printf("encrypt/decrypt round-trip: %s\n",
              round_trip ? "OK" : "FAILED");
  return ok && !tamper_valid && round_trip ? 0 : 1;
}
